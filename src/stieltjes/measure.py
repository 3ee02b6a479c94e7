"""Lebesgue-Stieltjes measures of finite interval unions and the LS integral.

All intervals are half open, ``[a, b)``, matching the left-continuity of the
derivators: the measure of ``[a, b)`` is exactly ``g(b) - g(a)``, which
collects the jump at ``a`` and excludes the jump at ``b``.  A *cover* is any
finite sequence of such intervals; ``disjointify`` reduces it to the
connected components of its union, after which the outer measure of the
union is a plain finite sum.

The LS integral against ``dg`` splits into the slope part, f times the
piecewise-constant slope, cut only where the slope changes, and the atoms, a
separate running sum of ``f(d) * jump(d)`` over the jumps ``a <= d < t``.
The package's one quadrature kernel is here: ``_gl_nodes`` alone builds
composite Gauss-Legendre panels, ``_gl_sums`` sums over many intervals at
once, and ``_cumulative`` gives the integral over ``[a, t)`` for many ``t``
from one table; ``integrate`` is its one-end case.  ``solver`` and
``moduli`` use them for every integral.  ``derivative.IndefiniteIntegral``
fits f instead: it halves each piece of its Chebyshev fit until the piece
adds at most 1e-14 of f's scale times the window's width to the integral,
and refuses an f still unresolved with 4,096 pieces live.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.ma  # noqa: F401  numpy >= 2 would import it (1.2 MB) in the first np.unique call

from .errors import IntegrandError, WindowDomainError

__all__ = [
    "QuadratureConfig",
    "measure_interval",
    "disjointify",
    "outer_measure",
    "integrate",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre settings for the continuous part.

    The default (order 8, 64 panels per slope segment) is far more than
    needed for smooth integrands; it keeps plain `integrate` calls accurate
    without tuning.  Internal callers pass leaner configs.
    """

    order: int = 8
    panels: int = 64

    def __post_init__(self):
        if self.order < 1 or self.panels < 1:
            raise ValueError("quadrature order and panel count must be >= 1")


# Samples per _sample_finite call of the quadrature (32 intervals of the
# growth bounds' 8-node, 8-panel rule) and of the indefinite integral's fit.
# It bounds the temporaries: larger blocks raise the memory peak of a
# many-interval table or fit.
_QUAD_BLOCK = 2048


@lru_cache(maxsize=32)
def _gl_rule(order):
    return np.polynomial.legendre.leggauss(order)


def _check_interval(g, a, b):
    left, right = g.window
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise WindowDomainError(f"need a < b, got a={a}, b={b}")
    if a < left or b > right:
        raise WindowDomainError(
            f"[{a}, {b}) is not inside the working window [{left}, {right}]"
        )


def measure_interval(g, a, b):
    """mu_g([a, b)) = g(b) - g(a); nonnegative by monotonicity."""
    _check_interval(g, float(a), float(b))
    return g.eval(b) - g.eval(a)


def disjointify(cover):
    """Merge a finite cover into the connected components of its union.

    Input order is irrelevant.  The output intervals are sorted, pairwise
    disjoint, and their union equals the input union exactly (endpoint
    arithmetic only, no tolerances).  For every derivator the total
    g-length can only shrink, since overlaps are counted once.
    """
    items = []
    for item in cover:
        a, b = float(item[0]), float(item[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise WindowDomainError(f"cover interval [{a}, {b}) is empty or not finite")
        items.append((a, b))
    items.sort()
    if not items:
        return []
    merged = [items[0]]
    for a, b in items[1:]:
        la, lb = merged[-1]
        if a <= lb:  # overlapping or adjacent: same component
            if b > lb:
                merged[-1] = (la, b)
        else:
            merged.append((a, b))
    return merged


def outer_measure(g, cover):
    """mu_g of a finite union of half-open intervals inside the window."""
    total = 0.0
    for a, b in disjointify(cover):
        total += measure_interval(g, a, b)
    return total


def _sample_finite(f, ts, fail, xs=None):
    """``f`` at every sample as a float array; non-finite values raise.

    Samples are ``f(ts[q])``, or ``f(t, x)`` when states ``xs`` are given,
    with ``t`` the float ``ts[q]`` and ``x`` the row ``xs[q]`` as a tuple of
    floats (the scalar rhs protocol of ``solver.IVProblem``).  A callable
    with a ``batch`` method is evaluated in one
    ``f.batch(ts)`` / ``f.batch(ts, xs)`` call; when that returns ``None`` or
    any non-finite value, or ``f`` has no ``batch``, the samples go through
    the scalar loop, which is the reference and raises ``fail(v, q)`` at
    the first non-finite sample ``q`` (or whatever ``f`` itself raises).
    """
    batch = getattr(f, "batch", None)
    if batch is not None:
        vals = batch(ts) if xs is None else batch(ts, xs)
        if vals is not None and np.isfinite(vals).all():
            return vals
    vals = np.empty(len(ts))
    for q, t in enumerate(ts):
        v = float(f(t) if xs is None else f(float(t), tuple(xs[q].tolist())))
        if not math.isfinite(v):
            raise fail(v, q)
        vals[q] = v
    return vals


def _gl_nodes(lo, hi, quad):
    """Composite Gauss-Legendre nodes on each ``[lo[i], hi[i]]``, flattened, and the panel half-widths."""
    # one contiguous row of panel edges per interval, so that a row's sums
    # are the same as for that interval alone
    edges = np.ascontiguousarray(np.linspace(lo, hi, quad.panels + 1).T)
    half = np.diff(edges) / 2.0
    ts = half[:, :, None] * _gl_rule(quad.order)[0]
    ts += ((edges[:, :-1] + edges[:, 1:]) / 2.0)[:, :, None]  # in place: one sample-sized array
    return ts.ravel(), half


def _gl_sums(sample, lo, hi, scale, quad):
    """Gauss-Legendre sums of ``sample(ts) -> values`` over each ``[lo[i], hi[i]]``.

    Each sum is multiplied by its interval's factor, which ``scale(lo)``
    gives for any slice ``lo`` of the left ends; an empty interval, or one
    whose factor is 0, gives 0.0 and takes no samples.  Intervals go in
    order, in blocks of ``_QUAD_BLOCK`` samples (at least one interval), so
    the temporaries stay small however many intervals there are; a sum does
    not depend on its block.
    """
    weights = _gl_rule(quad.order)[1]
    out = np.zeros(lo.size)
    per_block = max(1, _QUAD_BLOCK // (quad.panels * quad.order))
    for start in range(0, lo.size, per_block):
        a, b = lo[start:start + per_block], hi[start:start + per_block]
        s = scale(a)
        live = np.flatnonzero((a < b) & (s != 0.0))
        ts, half = _gl_nodes(a[live], b[live], quad)
        vals = sample(ts).reshape(half.shape + (quad.order,))
        out[start + live] = s[live] * np.sum(half * (vals @ weights), axis=-1)
    return out


def _slope_sums(g, f, lo, hi, quad):
    """The continuous part of the LS integral of ``f`` over each ``[lo[i], hi[i])``.

    Each interval lies in one slope segment of ``g``; an empty interval or a
    flat segment gives 0.0 without samples.  A non-finite sample raises
    ``IntegrandError`` with its abscissa.
    """
    def sample(ts):
        return _sample_finite(f, ts, lambda v, q: IntegrandError(
            f"integrand returned {v} at t={ts[q]}", point=ts[q]))

    return _gl_sums(sample, lo, hi, lambda a: g.slopes[g._segment(a)], quad)


def _atom_terms(f, atoms, sizes):
    """``f(d) * size`` for each atom ``d`` of the given size."""
    return _sample_finite(f, atoms, lambda v, q: IntegrandError(
        f"integrand returned {v} at atom t={atoms[q]}", point=atoms[q])) * sizes


def _cumulative(g, f, a, ts, quad):
    """The LS integral of ``f`` over ``[a, t)`` for every ``t >= a`` in ``ts``.

    The slope part is cut at ``a``, at every ``t`` and at the breakpoints
    in between, and the atoms in ``[a, max(ts))`` are a second table; each
    is one sequential ``cumsum`` from 0.0, and an atom at ``t`` is not
    counted.  ``f`` is sampled only in ``[a, max(ts)]``.
    """
    end = ts.max()
    lo, hi = np.searchsorted(g.jump_points, (a, end))
    atoms = g.jump_points[lo:hi]
    atomic = np.cumsum(np.concatenate(([0.0], _atom_terms(f, atoms, g.jump_sizes[lo:hi]))))
    bp = g.breakpoints
    nodes = np.unique(np.concatenate(([a], ts, bp[(bp > a) & (bp < end)])))
    smooth = np.cumsum(np.concatenate(([0.0], _slope_sums(g, f, nodes[:-1], nodes[1:], quad))))
    return smooth[np.searchsorted(nodes, ts)] + atomic[np.searchsorted(atoms, ts, side="left")]


def integrate(g, f, a, b, quad=None):
    """The Lebesgue-Stieltjes integral of f over [a, b) against dg: ``_cumulative`` at b.

    The atom at ``a`` is included and the atom at ``b`` excluded, matching
    the half-open convention used everywhere in this package.  ``f`` is a
    scalar function of t; any non-finite sample raises ``IntegrandError``
    with the offending abscissa.
    """
    a, b = float(a), float(b)
    _check_interval(g, a, b)
    return _cumulative(g, f, a, np.array([b]), quad or QuadratureConfig())[0]
