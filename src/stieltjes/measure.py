"""Lebesgue-Stieltjes measures of finite interval unions and the LS integral.

All intervals are half open, ``[a, b)``, matching the left-continuity of the
derivators: the measure of ``[a, b)`` is exactly ``g(b) - g(a)``, which
collects the jump at ``a`` and excludes the jump at ``b``.  A *cover* is any
finite sequence of such intervals; ``disjointify`` reduces it to the
connected components of its union, after which the outer measure of the
union is a plain finite sum.

The LS integral against ``dg`` splits into the slope part, f times the
slope on each piece of ``Derivator._pieces``, and the atoms, a separate
running sum of ``f(d) * jump(d)`` over the jumps ``a <= d < b``.  The
package's one quadrature kernel is here: ``_gl_nodes`` alone builds
composite Gauss-Legendre panels, ``_gl_sums`` sums over many intervals at
once, each times its entry of an array of factors, and ``integrate`` gives
the integral over one ``[a, b)``.  ``solver`` and ``moduli`` use them for
every integral they do not read from a fit.
``derivative.IndefiniteIntegral`` fits f instead: it halves each piece of
its Chebyshev fit until the tail of the piece's series is at most 1e-14 of
f's scale times the window's width, and refuses an f still unresolved with
4,096 pieces live.  The growth bounds of ``solver`` read such fits.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrandError, WindowDomainError, _pairs, _real, _require_count

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
    without tuning.  Internal callers pass leaner configs.  Both settings must
    be integers >= 1, never bools, or ``ConfigurationError`` is raised.
    """

    order: int = 8
    panels: int = 64

    def __post_init__(self):
        _require_count("order", self.order)
        _require_count("panels", self.panels)


# Samples per _sample_finite call of the quadrature (32 intervals of an
# 8-node, 8-panel rule) and of the indefinite integral's fit.
# It bounds the temporaries: larger blocks raise the memory peak of a
# many-interval sum or fit.
_QUAD_BLOCK = 2048
# Samples per block of _sample_finite's scalar loop, which holds a block's
# abscissas and values as Python lists: at 2,048 samples these lists take
# about 130 KB, which would raise the memory peak of an FTC round trip.
_SCALAR_BLOCK = 128


@lru_cache(maxsize=32)
def _gl_rule(order):
    return np.polynomial.legendre.leggauss(order)


def _check_interval(g, a, b):
    """``(a, b)`` as floats, points of g's window with a < b."""
    a = g._require_inside("a", _real("a", a), include_right=False)
    b = g._require_inside("b", _real("b", b), include_right=True)
    if a >= b:
        raise WindowDomainError(f"need a < b, got a={a}, b={b}")
    return a, b


def measure_interval(g, a, b):
    """mu_g([a, b)) = g(b) - g(a); nonnegative by monotonicity."""
    a, b = _check_interval(g, a, b)
    return g.eval(b) - g.eval(a)


def disjointify(cover):
    """Merge a finite cover into the connected components of its union.

    Input order is irrelevant.  The output intervals are sorted, pairwise
    disjoint, and their union equals the input union exactly (endpoint
    arithmetic only, no tolerances).  For every derivator the total
    g-length can only shrink, since overlaps are counted once.
    """
    merged = []
    for a, b in sorted(map(tuple, _pairs("cover", cover).tolist())):
        if not a < b:
            raise WindowDomainError(f"cover interval [{a}, {b}) is empty")
        if merged and a <= merged[-1][1]:  # overlapping or adjacent: same component
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
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

    Samples are ``f(t)``, or ``f(t, x)`` when states ``xs`` are given, with
    ``t`` the Python float ``ts[q]`` and ``x`` the row ``xs[q]`` (an array
    or nested lists) as a tuple of floats (the scalar rhs protocol of
    ``solver.IVProblem``).  A callable with a ``batch`` method is evaluated
    in one ``f.batch(ts)`` / ``f.batch(ts, xs)`` call; when that returns
    ``None`` or any non-finite value, or ``f`` has no ``batch``, the samples
    go through the scalar loop, which is the reference and raises
    ``fail(v, q)`` at the first non-finite sample ``q`` (or whatever ``f``
    itself raises), sampling f no further.  The loop converts ``ts`` (and
    ``xs``) to Python floats ``_SCALAR_BLOCK`` samples at a time and writes
    each block's values into the array at once.  So f computes in Python
    float arithmetic: ``1.0 / 0.0`` raises ``ZeroDivisionError`` in f, where
    a numpy scalar would give ``inf`` and ``fail``.
    """
    batch = getattr(f, "batch", None)
    if batch is not None:
        vals = batch(ts) if xs is None else batch(ts, xs)
        if vals is not None and np.isfinite(vals).all():
            return vals
    vals = np.empty(len(ts))
    isfinite = math.isfinite
    for s in range(0, len(ts), _SCALAR_BLOCK):
        block = []
        if xs is None:
            for t in ts[s:s + _SCALAR_BLOCK].tolist():
                v = float(f(t))
                if not isfinite(v):
                    raise fail(v, s + len(block))
                block.append(v)
        else:
            rows = np.asarray(xs[s:s + _SCALAR_BLOCK], dtype=float).tolist()
            for t, x in zip(ts[s:s + _SCALAR_BLOCK].tolist(), rows):
                v = float(f(t, tuple(x)))
                if not isfinite(v):
                    raise fail(v, s + len(block))
                block.append(v)
        vals[s:s + len(block)] = block
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


def _gl_sums(sample, lo, hi, factors, quad):
    """Gauss-Legendre sums of ``sample(ts) -> values`` over each ``[lo[i], hi[i]]``.

    Each sum is multiplied by its interval's factor ``factors[i]``; an empty
    interval, or one whose factor is 0, gives 0.0 and takes no samples.
    Intervals go in order, in blocks of ``_QUAD_BLOCK`` samples (at least
    one interval), so the temporaries stay small however many intervals
    there are; a sum does not depend on its block.
    """
    weights = _gl_rule(quad.order)[1]
    out = np.zeros(lo.size)
    per_block = max(1, _QUAD_BLOCK // (quad.panels * quad.order))
    for start in range(0, lo.size, per_block):
        a, b, s = (x[start:start + per_block] for x in (lo, hi, factors))
        live = np.flatnonzero((a < b) & (s != 0.0))
        ts, half = _gl_nodes(a[live], b[live], quad)
        vals = sample(ts).reshape(half.shape + (quad.order,))
        out[start + live] = s[live] * np.sum(half * (vals @ weights), axis=-1)
    return out


def _atom_terms(f, atoms, sizes):
    """``f(d) * size`` for each atom ``d`` of the given size."""
    return _sample_finite(f, atoms, lambda v, q: IntegrandError(
        f"integrand returned {v} at atom t={atoms[q]}", point=atoms[q])) * sizes


def integrate(g, f, a, b, quad=None):
    """The Lebesgue-Stieltjes integral of f over [a, b) against dg.

    The atom at ``a`` is included and the atom at ``b`` excluded, matching
    the half-open convention used everywhere in this package.  ``f`` is a
    scalar function of t, sampled first at the atoms in ``[a, b)``, then on
    the slope pieces ``g._pieces`` cuts from ``[a, b)`` (not cut at atoms);
    each part is one sequential ``cumsum`` from 0.0.  Any non-finite sample
    raises ``IntegrandError`` with the offending abscissa.
    """
    a, b = _check_interval(g, a, b)
    lo, hi = np.searchsorted(g.jump_points, (a, b))
    atomic = _atom_terms(f, g.jump_points[lo:hi], g.jump_sizes[lo:hi])

    def sample(ts):
        return _sample_finite(f, ts, lambda v, q: IntegrandError(
            f"integrand returned {v} at t={ts[q]}", point=ts[q]))

    edges, slopes = g._pieces((a, b))
    smooth = _gl_sums(sample, edges[:-1], edges[1:], slopes, quad or QuadratureConfig())
    return np.cumsum(np.append(0.0, smooth))[-1] + np.cumsum(np.append(0.0, atomic))[-1]
