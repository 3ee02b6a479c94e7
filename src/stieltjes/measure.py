"""Lebesgue-Stieltjes measures of finite interval unions and the LS integral.

All intervals are half open, ``[a, b)``, matching the left-continuity of the
derivators: the measure of ``[a, b)`` is exactly ``g(b) - g(a)``, which
collects the jump at ``a`` and excludes the jump at ``b``.  A *cover* is any
finite sequence of such intervals; ``disjointify`` reduces it to the
connected components of its union, after which the outer measure of the
union is a plain finite sum.

Integration against ``dg`` splits into the absolutely continuous part
(piecewise-constant density given by the slopes, handled by composite
Gauss-Legendre panels) and the purely atomic part (a finite sum of
``f(d) * delta`` over the jumps inside ``[a, b)``).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
# indefinite integral's 16-node, 4-panel rule).  It bounds the temporaries:
# larger blocks raise the memory peak of a many-point IndefiniteIntegral.batch.
_QUAD_BLOCK = 2048


@lru_cache(maxsize=32)
def _gl_rule(order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


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


def normalize_cover(cover):
    """Validate a cover and return it as a list of float pairs."""
    out = []
    for item in cover:
        a, b = float(item[0]), float(item[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise WindowDomainError(f"cover interval [{a}, {b}) is empty or not finite")
        out.append((a, b))
    return out


def disjointify(cover):
    """Merge a finite cover into the connected components of its union.

    Input order is irrelevant.  The output intervals are sorted, pairwise
    disjoint, and their union equals the input union exactly (endpoint
    arithmetic only, no tolerances).  For every derivator the total
    g-length can only shrink, since overlaps are counted once.
    """
    items = sorted(normalize_cover(cover))
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


def _atoms_in(g, a, b):
    """Indices of jump points d with a <= d < b."""
    lo = np.searchsorted(g.jump_points, a, side="left")
    hi = np.searchsorted(g.jump_points, b, side="left")
    return lo, hi


def _sample_finite(f, ts, fail, xs=None):
    """``f`` at every sample as a float array; non-finite values raise.

    Samples are ``f(ts[q])``, or ``f(ts[q], xs[q])`` when states ``xs`` are
    given.  A callable with a ``batch`` method is evaluated in one
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
        v = float(f(t) if xs is None else f(t, xs[q]))
        if not math.isfinite(v):
            raise fail(v, q)
        vals[q] = v
    return vals


def _slope_sums(g, f, lo, hi, quad):
    """The continuous part of the LS integral of ``f`` over each ``[lo[i], hi[i])``.

    Each interval must lie inside one slope segment of ``g``; its result is
    that slope times a composite Gauss-Legendre sum of ``quad.panels`` equal
    panels of ``quad.order`` nodes.  An empty interval or a flat segment
    gives 0.0 and takes no samples.  The intervals are taken in blocks of
    ``_QUAD_BLOCK`` samples' worth (at least one interval), and each block's
    samples go through one ``_sample_finite`` call in interval order; a
    non-finite sample raises ``IntegrandError`` with its abscissa.  The
    result for one interval is the same whichever block it falls in.
    """
    nodes, weights = _gl_rule(quad.order)
    last = g.slopes.size - 1
    out = np.zeros(lo.size)
    per_block = max(1, _QUAD_BLOCK // (quad.panels * quad.order))
    for start in range(0, lo.size, per_block):
        a, b = lo[start:start + per_block], hi[start:start + per_block]
        slopes = g.slopes[np.minimum(np.searchsorted(g.breakpoints, a, side="right") - 1, last)]
        live = np.flatnonzero((a < b) & (slopes != 0.0))
        # one contiguous row of panel edges per interval, so that each row's
        # sum below is the same as for that interval alone
        edges = np.ascontiguousarray(np.linspace(a[live], b[live], quad.panels + 1).T)
        half = np.diff(edges) / 2.0
        mids = (edges[:, :-1] + edges[:, 1:]) / 2.0
        ts = (mids[:, :, None] + half[:, :, None] * nodes).ravel()
        vals = _sample_finite(f, ts, lambda v, q: IntegrandError(
            f"integrand returned {v} at t={ts[q]}", point=ts[q]))
        vals = vals.reshape(half.shape + (quad.order,))
        out[start + live] = slopes[live] * np.sum(half * (vals @ weights), axis=-1)
    return out


def integrate(g, f, a, b, quad=None):
    """The Lebesgue-Stieltjes integral of f over [a, b) against dg.

    The atom at ``a`` is included and the atom at ``b`` excluded, matching
    the half-open convention used everywhere in this package.  ``f`` is a
    scalar function of t; any non-finite sample raises ``IntegrandError``
    with the offending abscissa.
    """
    a, b = float(a), float(b)
    _check_interval(g, a, b)
    quad = quad or QuadratureConfig()

    lo, hi = _atoms_in(g, a, b)
    atoms = g.jump_points[lo:hi]
    vals = _sample_finite(f, atoms, lambda v, q: IntegrandError(
        f"integrand returned {v} at atom t={atoms[q]}", point=atoms[q]))
    atomic = 0.0
    for v, delta in zip(vals, g.jump_sizes[lo:hi]):
        atomic += v * delta

    # only the slope segments [bp[k], bp[k+1]) with bp[k] < b and bp[k+1] > a
    # meet [a, b)
    bp = g.breakpoints
    k = np.arange(np.searchsorted(bp, a, side="right") - 1, np.searchsorted(bp, b, side="left"))
    smooth = 0.0
    for part in _slope_sums(g, f, np.maximum(bp[k], a), np.minimum(bp[k + 1], b), quad):
        smooth += part  # in segment order, as a running sum

    return smooth + atomic
