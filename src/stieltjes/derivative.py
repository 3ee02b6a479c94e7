"""Numerical Stieltjes derivatives and the fundamental-theorem round trip.

The Stieltjes derivative of ``f`` with respect to a derivator ``g`` at ``t``
is the limit of ``(f(s) - f(t)) / (g(s) - g(t))``.  Three regimes matter
numerically:

* ``t`` inside the local-constancy set of ``g``: the quotient makes no sense
  on any neighborhood, so the request is an error, not a number.
* ``g`` jumps at ``t``: the derivative is the exact quotient
  ``(f(t+) - f(t)) / (g(t+) - g(t))``.  The denominator is the stored jump;
  the numerator ``f(t+) - f(t)`` is read off exactly from objects exposing
  ``right_increment`` (indefinite integrals); otherwise ``f(t+)`` is
  estimated by extrapolating ``f(t + h)`` along the dyadic ladder ``_H_STEPS``.
* ``g`` continuous at ``t``: one-sided difference quotients along that ladder
  are Richardson-extrapolated and accepted when the two sides agree within
  ``_TOL_MATCH``; if one side of ``g`` is flat at every tested scale, the
  other side alone decides.

The difference ladders of many continuity points are evaluated together:
``_ladder_estimates`` lays out both sides of every point's ladder in one
array and samples g and f over all of it in one call each.
``stieltjes_derivative`` is its one-point case, and ``check_ftc`` runs it on
blocks of ``_LADDER_BLOCK`` points.

``indefinite_integral`` builds ``F(t) = integral of f over [a, t) against
dg`` once, as a piecewise polynomial: between the breakpoints and jumps of
``g``, a Chebyshev fit of f, integrated exactly and summed into the table of
F at those points (Greengard 1991; Trefethen, *Approximation Theory and
Approximation Practice*, ch. 19).  Only the pieces where the fit does not
yet resolve f are halved, so a kink, a step or a cusp is split off by
bisection (Pachon, Platte & Trefethen, *IMA J. Numer. Anal.* 30, 2010).  A
piece is resolved when the tail of its Chebyshev series, which estimates the
error it adds to the integral, is at most 1e-14 of f's scale times the
window's width; an f still unresolved when 4,096 pieces would be live raises
``IntegrandError`` at build.  F then samples f no more, and its exact
``right_increment`` makes the recovered derivative at jump points exact.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .derivator import classify
from .errors import (
    DerivativeUndefinedError,
    IntegrandError,
    NoDerivativeError,
    RightLimitError,
    WindowDomainError,
)
from .measure import _QUAD_BLOCK, _atom_terms, _sample_finite
# F never calls integrate; the benchmark's tracer (bench/tracer.py) patches
# derivative.integrate, so the name stays importable from this module
from .measure import integrate  # noqa: F401

__all__ = [
    "stieltjes_derivative",
    "indefinite_integral",
    "IndefiniteIntegral",
    "check_ftc",
    "FtcReport",
]

_FLAT_EPS = 1e-14  # below this, a g-increment counts as numerically flat
# the step ladder of every difference quotient, and the relative tolerance
# within which the two sides (or successive right-limit samples) must agree
_H_STEPS = tuple(2.0 ** -k for k in range(4, 21))
_TOL_MATCH = 1e-6


def _extrapolate(values):
    """Limit estimate from a sequence computed along a halving step ladder.

    Assumes an error expansion in powers of h; one Richardson sweep removes
    the O(h) term, a second the O(h^2) term.
    """
    if len(values) < 3:
        return values[-1]
    v0, v1, v2 = values[-3], values[-2], values[-1]
    w1 = 2.0 * v1 - v0
    w2 = 2.0 * v2 - v1
    return (4.0 * w2 - w1) / 3.0


def _right_limit(f, t, upper):
    """Estimate f(t+) from f along the step ladder right of t: the Richardson
    estimates with and without the finest step must agree within ``_TOL_MATCH``."""
    samples = [f(t + h) for h in _H_STEPS if t + h <= upper]
    if len(samples) < 4:
        raise RightLimitError(f"not enough room right of t={t} to estimate f(t+)")
    if not all(math.isfinite(v) for v in samples):
        raise RightLimitError(f"f produced non-finite samples right of t={t}")
    limit = _extrapolate(samples)
    if abs(limit - _extrapolate(samples[:-1])) > _TOL_MATCH * (1.0 + abs(limit)):
        raise RightLimitError(
            f"samples of f right of t={t} do not converge; the right limit may not exist"
        )
    return limit


def _ladder_estimates(f, g, ts, lo, hi):
    """The (left, right) extrapolated quotients at each continuity point of ``ts``.

    Both sides of every point's ladder form one ``(m, 2, 1 + len(h))`` array:
    t, then ``t + sign * h``, right side (sign +1) before left.  Steps that
    leave ``[lo, hi]``, where f is defined, or where g is numerically flat
    are dropped.  g at every step comes from one ``g.eval`` call and f from
    one ``_sample_finite`` call, in that order: by point, right side before
    left.  So a non-finite sample raises ``IntegrandError`` at the sample
    that a walk point by point and side by side meets first.  A side with no
    step left gives ``None``.
    """
    ts = np.asarray(ts, dtype=float)
    s = np.empty((ts.size, 2, 1 + len(_H_STEPS)))
    s[:, :, 0] = ts[:, None]
    s[:, :, 1:] = ts[:, None, None] + np.array([[1.0], [-1.0]]) * np.asarray(_H_STEPS)
    keep = (s >= lo) & (s <= hi)
    gs = np.zeros(s.shape)
    gs[keep] = g.eval(s[keep])
    keep[:, :, 1:] &= np.abs(gs[:, :, 1:] - gs[:, :, :1]) >= _FLAT_EPS
    at = s[keep]
    fs = np.zeros(s.shape)
    fs[keep] = _sample_finite(f, at, lambda v, q: IntegrandError(
        f"f returned {v} at t={at[q]}", point=at[q]))
    step = keep[:, :, 1:]
    df, dg = fs[:, :, 1:] - fs[:, :, :1], gs[:, :, 1:] - gs[:, :, :1]
    quotients = (df[step] / dg[step]).tolist()
    ends = np.cumsum(step.sum(axis=2)).tolist()
    est = [_extrapolate(quotients[i:j]) if i < j else None
           for i, j in zip([0, *ends], ends)]
    return list(zip(est[1::2], est[0::2]))


def _decide(t, est_l, est_r):
    """The g-derivative at a continuity point t from its one-sided estimates."""
    if est_r is None and est_l is None:
        raise DerivativeUndefinedError(
            f"the derivator is numerically flat around t={t} at every tested scale"
        )
    if est_r is None:
        return est_l
    if est_l is None:
        return est_r
    if abs(est_r - est_l) > _TOL_MATCH * (1.0 + max(abs(est_r), abs(est_l))):
        raise NoDerivativeError(
            f"one-sided g-derivative estimates at t={t} disagree: "
            f"left={est_l}, right={est_r}",
            left=est_l,
            right=est_r,
        )
    return 0.5 * (est_r + est_l)


def stieltjes_derivative(f, g, t):
    """The g-derivative of f at t.

    Raises ``DerivativeUndefinedError`` inside the constancy set of ``g`` (or
    where ``g`` is numerically flat on every tested scale on both sides), and
    ``NoDerivativeError`` when the one-sided estimates disagree beyond the
    relative tolerance ``_TOL_MATCH`` = 1e-6 (both estimates are attached to
    the exception).  At a continuity point this is the one-point case of the
    ladder evaluation ``check_ftc`` runs on blocks of points: both sides'
    steps, ``t + h`` and ``t - h`` for ``h = 2^-k``, k = 4..20, inside the
    window, go through one ``g.eval`` call and one ``_sample_finite`` call,
    so f is sampled through ``f.batch`` when it offers one.  A non-finite
    value of f on the ladder, or at t itself at a jump point, raises
    ``IntegrandError``.
    """
    t = float(t)
    left_w, right_w = g.window
    if not left_w <= t < right_w:
        raise WindowDomainError(f"t={t} outside [{left_w}, {right_w})")

    k = int(classify(g)._holding(t))
    if k >= 0:
        a, b = classify(g)._bounds[:, k].tolist()
        raise DerivativeUndefinedError(
            f"t={t} lies in the constancy interval ({a}, {b}) of the derivator"
        )

    delta = g.jump(t)
    if delta > 0.0:
        # objects that know their own atom increment (indefinite integrals)
        # make the quotient exact; everything else goes through extrapolation
        increment = getattr(f, "right_increment", None)
        if increment is not None:
            return increment(t) / delta
        limit = _right_limit(f, t, right_w)
        value = float(f(t))
        if not math.isfinite(value):
            raise IntegrandError(f"f returned {value} at t={t}", point=t)
        return (limit - value) / delta

    [(est_l, est_r)] = _ladder_estimates(f, g, [t], left_w, right_w)
    return _decide(t, est_l, est_r)


# The piecewise-polynomial fit of IndefiniteIntegral (_fit_pieces): f is
# interpolated at _FIT_NODES first-kind Chebyshev points of a piece (interior
# points only), on pieces at most 1/_FIT_SPAN of the window wide, halved until
# resolved to _FIT_TAIL with at most _FIT_BUDGET of them live.  Evaluation works
# in blocks of _EVAL_BLOCK points, so the temporaries of a many-point batch
# stay small.
_FIT_NODES = 16
_FIT_SPAN = 16
_FIT_TAIL = 1e-14
_FIT_BUDGET = 4096
_EVAL_BLOCK = 256
# check_ftc evaluates the ladders of this many points at once: larger blocks
# raise the memory peak of a round trip, smaller ones the per-call overhead
_LADDER_BLOCK = 16

_THETA = np.pi * (np.arange(_FIT_NODES)[::-1] + 0.5) / _FIT_NODES
_CHEB_X = np.cos(_THETA)  # ascending, inside (-1, 1)
# values at _CHEB_X -> Chebyshev coefficients (discrete cosine transform)
_CHEB_FIT = 2.0 / _FIT_NODES * np.cos(np.outer(np.arange(_FIT_NODES), _THETA))
_CHEB_FIT[0] /= 2.0
# coefficients -> coefficients of the antiderivative that vanishes at -1
_CHEB_INT = np.polynomial.chebyshev.chebint(np.eye(_FIT_NODES), lbnd=-1, axis=0)


def _clenshaw(coef, x):
    """``sum(coef[j] * T_j(x))`` by Clenshaw's recurrence.

    ``coef`` is a list of floats with a float ``x``, or rows of arrays with
    an array ``x``; both take the same operations in the same order, so they
    give the same bits.
    """
    x2 = x + x
    b1 = b2 = 0.0
    for c in coef[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return coef[0] + x * b1 - b2


def _sample_blocks(f, ts):
    """f at every point of ``ts``, in blocks; a non-finite value raises ``IntegrandError``."""
    vals = np.empty(ts.size)
    for s in range(0, ts.size, _QUAD_BLOCK):
        block = ts[s:s + _QUAD_BLOCK]
        vals[s:s + _QUAD_BLOCK] = _sample_finite(f, block, lambda v, q: IntegrandError(
            f"integrand returned {v} at t={block[q]}", point=block[q]))
    return vals


def _fit_pieces(f, lo, hi, width):
    """Split each ``[lo[i], hi[i]]`` into pieces on which f is resolved.

    Returns the pieces' ends, the index i of the interval each comes from,
    and the Chebyshev coefficients of f on it.  An interval is first cut into
    equal pieces at most W / 16 wide, W = ``width`` the window's.  A piece of
    half-width h is resolved when h times its last three coefficients is at
    most 1e-14 * W times the larger of its own largest coefficient and the
    largest of its interval's first fit: it estimates the error added to the
    integral, not to f.  Unresolved pieces are halved, except one too narrow
    to halve in floating point; when more than ``_FIT_BUDGET`` would be live,
    the fit raises ``IntegrandError``.
    """
    scale = np.zeros(lo.size)  # the largest coefficient of each interval's first fit
    n = np.maximum(np.ceil((hi - lo) * (_FIT_SPAN / width)), 1.0).astype(np.intp)
    of = np.repeat(np.arange(lo.size), n)
    j = np.arange(of.size) - np.repeat(np.cumsum(n) - n, n)  # a piece's rank in its interval
    lo, hi, n = lo[of], hi[of], n[of]
    lo, hi = lo + (hi - lo) * j / n, np.where(j + 1 == n, hi, lo + (hi - lo) * (j + 1) / n)
    out = []
    while True:
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        vals = _sample_blocks(f, (mid[:, None] + half[:, None] * _CHEB_X).ravel())
        coef = vals.reshape(lo.size, _FIT_NODES) @ _CHEB_FIT.T
        size = np.abs(coef)
        top = size.max(axis=1)
        if not out:
            np.maximum.at(scale, of, top)
        tol = _FIT_TAIL * width * np.maximum(top, scale[of])
        done = (size[:, -3:].max(axis=1) * half <= tol) | (mid == lo) | (mid == hi)
        out.append((lo[done], hi[done], of[done], coef[done]))
        split = ~done
        if 2 * np.count_nonzero(split) > _FIT_BUDGET:
            t = float(mid[split][0])
            raise IntegrandError(
                f"the fit of f does not resolve it near t={t} within {_FIT_BUDGET} pieces",
                point=t)
        lo = np.concatenate((lo[split], mid[split]))
        hi = np.concatenate((mid[split], hi[split]))
        of = np.concatenate((of[split], of[split]))
        if not lo.size:
            break
    return [np.concatenate(parts) for parts in zip(*out)]


class IndefiniteIntegral:
    """F(t) = integral of f over [a, t) against dg, as a callable on [a, R].

    F is a piecewise polynomial built in one pass over f.  Between two nodes
    (breakpoints and jumps of ``g``), on a slope segment, f is interpolated
    at Chebyshev points on pieces at most 1/16 of the window's width W wide,
    each halved until its Chebyshev tail is at most 1e-14 * W times the scale
    of f (``_fit_pieces``).  That estimates the error a piece adds to F where
    f is smooth on it, and bounds nothing: a kink just inside a piece's edge
    barely moves the tail (one 8.9e-6 inside a piece 0.014 wide, W = 1, was
    accepted and left F 2.2e-11 off).  F there is F at the node, plus the
    node's atom, plus the slope times the exact integral of the interpolant,
    summed by Clenshaw's recurrence; F at the next node adds the integrals
    of all the interval's pieces.  The build samples f at every atom and at
    the fit's nodes, no two neighbouring ones in a slope interval of width w
    more than (pi / 32) * min(w, W / 16) apart.  It raises ``IntegrandError``
    where f is not finite, where F would not be, and where f is still
    unresolved with ``_FIT_BUDGET`` = 4,096 pieces live.  After it, F never
    samples f.

    ``batch(ts)``, which ``F(ts)`` calls on an array, equals the calls one by
    one; through ``_sample_finite``, difference ladders and sampled
    continuity checks use it, and so do the growth bounds in ``solver``.
    ``right_limit`` is exact: F(t+) = F(t) + f(t) * jump(t).
    """

    # a sum that overflows leaves a non-finite entry, which the build refuses
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, f, g, a):
        left_w, right_w = g.window
        a = float(a)
        if not left_w <= a < right_w:
            raise WindowDomainError(f"a={a} outside [{left_w}, {right_w})")
        self.f = f
        self.g = g
        self.a = a
        self._nodes, slope = g._pieces(np.r_[a, g.jump_points[g.jump_points >= a], right_w])
        lo, hi = self._nodes[:-1], self._nodes[1:]
        live = np.flatnonzero(slope != 0.0)
        flat = np.flatnonzero(slope == 0.0)
        plo, phi, of, coef = _fit_pieces(f, lo[live], hi[live], right_w - left_w)
        of = live[of]
        # a flat interval is one piece with F constant on it
        plo, phi = np.concatenate((plo, lo[flat])), np.concatenate((phi, hi[flat]))
        of = np.concatenate((of, flat))
        anti = np.concatenate((coef @ _CHEB_INT.T, np.zeros((flat.size, _FIT_NODES + 1))))
        order = np.argsort(plo, kind="stable")
        plo, phi, of, anti = plo[order], phi[order], of[order], anti[order]
        mid, half = (plo + phi) / 2.0, (phi - plo) / 2.0
        anti *= (slope[of] * half)[:, None]

        # the table: each interval adds its atom and the exact integrals of its pieces
        whole = anti.sum(axis=1)
        inc = np.bincount(of, weights=whole, minlength=lo.size)
        jumps = g.jump(lo)
        at = np.flatnonzero(jumps > 0.0)
        self._atoms = np.zeros(lo.size)  # f times the jump, at each node
        self._atoms[at] = _atom_terms(f, lo[at], jumps[at])
        self._cum = np.concatenate(([0.0], np.cumsum(inc + self._atoms)))
        start = self._cum[:-1] + self._atoms  # F just right of each node

        # F at each piece's left end: F right of its node plus the pieces
        # before it in its interval
        first = np.searchsorted(of, of)  # the first piece of each piece's interval
        before = np.cumsum(whole) - whole
        base = start[of] + (before - before[first])

        self._lo = plo  # piece left ends, ascending; every node but the last is one
        self._of = of  # node index of each piece's interval
        # one row per piece: F at its left end, its midpoint, its half-width,
        # then the Chebyshev coefficients of F - base in the variable (t - mid) / half
        self._rows = np.column_stack((base, mid, half, anti))
        # Clenshaw's partial sums on [-1, 1] stay within 34 times a row's sum
        bound = np.abs(self._rows).sum(axis=1) * (2.0 * (_FIT_NODES + 1))
        if not (np.isfinite(self._cum).all() and np.isfinite(bound).all()):
            raise IntegrandError("the integral of f is not finite in double precision")

    def _inside(self, t):
        t = float(t)
        if not self.a <= t <= self.g.window[1]:
            raise WindowDomainError(f"t={t} outside [{self.a}, {self.g.window[1]}]")
        return t

    def __call__(self, t):
        if getattr(t, "ndim", 0):  # np.ndim costs a microsecond a call
            return self.batch(t)
        t = self._inside(t)
        if t == self._nodes[-1]:
            return float(self._cum[-1])
        p = int(self._lo.searchsorted(t, "right")) - 1
        k = int(self._of[p])
        if t == self._nodes[k]:
            return float(self._cum[k])
        base, mid, half, *coef = self._rows[p].tolist()
        return base + _clenshaw(coef, (t - mid) / half)

    def batch(self, ts):
        """F at every point of ``ts`` as an array, equal to ``[F(t) for t in ts]``."""
        ts = np.asarray(ts, dtype=float)
        right = self.g.window[1]
        outside = ~((ts >= self.a) & (ts <= right))
        if outside.any():
            raise WindowDomainError(f"t={ts[outside][0]} outside [{self.a}, {right}]")
        out = np.empty(ts.shape)
        for s in range(0, ts.size, _EVAL_BLOCK):
            out[s:s + _EVAL_BLOCK] = self._batch_block(ts[s:s + _EVAL_BLOCK])
        return out

    def _batch_block(self, ts):
        p = np.searchsorted(self._lo, ts, side="right") - 1
        k = self._of[p]
        rows = self._rows[p]
        out = rows[:, 0] + _clenshaw(rows[:, 3:].T, (ts - rows[:, 1]) / rows[:, 2])
        on = np.flatnonzero(self._nodes[k] == ts)
        out[on] = self._cum[k[on]]
        out[ts == self._nodes[-1]] = self._cum[-1]
        return out

    def right_limit(self, t):
        """F(t+), exact: the atom at t contributes f(t) * jump(t)."""
        return self(t) + self.right_increment(t)

    def right_increment(self, t):
        """F(t+) - F(t), the atom term f(t) * jump(t) of the build; zero off the jump set."""
        t = self._inside(t)
        k = int(self._nodes.searchsorted(t))
        return float(self._atoms[k]) if k < self._atoms.size and self._nodes[k] == t else 0.0


def indefinite_integral(f, g, a):
    """Build ``F(t) = integral of f over [a, t) dg`` with F(a) = 0."""
    return IndefiniteIntegral(f, g, a)


@dataclass
class FtcSample:
    t: float
    status: str  # "ok" | "failed" | "skipped-constancy" | "no-derivative"
    derivative: float | None = None
    expected: float | None = None
    error: float | None = None


@dataclass
class FtcReport:
    """Outcome of the derivative-of-integral round trip on a sample grid."""

    samples: list[FtcSample] = field(default_factory=list)
    max_error_continuous: float = 0.0
    max_relative_error_jumps: float = 0.0
    n_skipped_constancy: int = 0

    def ok(self):
        """No failed sample, continuity errors <= 1e-5, relative jump errors <= 1e-12."""
        return (
            self.max_error_continuous <= 1e-5
            and self.max_relative_error_jumps <= 1e-12
            and not any(s.status in ("failed", "no-derivative") for s in self.samples)
        )


def check_ftc(f, g, a, b, sample_count=20):
    """Differentiate the indefinite integral of f and compare against f.

    The samples are ``sample_count`` uniform points of [a, b), nudged away
    from jumps so the dyadic ladder of the estimator is not polluted by
    atoms, then every jump point in [a, b).  A sample inside the constancy
    set, or where g is numerically flat at every tested scale, is skipped:
    the derivative is undefined there by design.  At a jump
    point ``stieltjes_derivative`` gives the derivative, compared relatively.
    At any other point ``_decide`` takes its two ladder estimates, evaluated
    ``_LADDER_BLOCK`` points at a time with one ``g.eval`` and one
    ``F.batch`` call per block; F is finite and samples f no more after its
    build, so a block never fails as a whole.  F is defined on [a, R], R the
    right end of the window, and ladder steps outside it are dropped.  f is
    evaluated once per sample; where f(t) or the derivative is not finite,
    the sample is ``"failed"``.  ``a >= b`` and ``b > R`` raise
    ``WindowDomainError``.
    """
    if not a < b:
        raise WindowDomainError(f"check_ftc needs a < b, got a={a}, b={b}")
    right = g.window[1]
    if b > right:
        raise WindowDomainError(f"check_ftc needs b <= R, got b={b}, R={right}")
    F = indefinite_integral(f, g, a)
    jump_pts = [d for d in g.jump_points.tolist() if a <= d < b]

    guard = 4.0 * _H_STEPS[-1]
    points = []
    for i in range(sample_count):
        t = a + (b - a) * (i + 0.5) / sample_count
        near = [d for d in jump_pts if abs(d - t) < guard]
        if near:
            t = near[0] + guard  # sample the smooth side next to the atom
            if not a <= t < b:
                continue
        points.append(t)
    ts = np.array(sorted(set(points)) + jump_pts, dtype=float)

    skipped = classify(g)._holding(ts) >= 0
    at_jump = g.jump(ts) > 0.0
    plain = np.flatnonzero(~skipped & ~at_jump)
    estimates = {}
    for s in range(0, plain.size, _LADDER_BLOCK):
        block = plain[s:s + _LADDER_BLOCK]
        estimates.update(zip(block.tolist(), _ladder_estimates(F, g, ts[block], a, right)))

    report = FtcReport()
    for i, t in enumerate(ts.tolist()):
        d = None
        try:
            if at_jump[i]:
                d = stieltjes_derivative(F, g, t)
            elif not skipped[i]:
                d = _decide(t, *estimates[i])
        except DerivativeUndefinedError:
            pass
        except (NoDerivativeError, RightLimitError, IntegrandError):
            report.samples.append(FtcSample(t=t, status="no-derivative"))
            continue
        if d is None:
            report.samples.append(FtcSample(t=t, status="skipped-constancy"))
            report.n_skipped_constancy += 1
            continue
        expected = float(f(t))
        error = abs(d - expected) / (1.0 + abs(expected) if at_jump[i] else 1.0)
        ok = math.isfinite(error)
        report.samples.append(FtcSample(t=t, status="ok" if ok else "failed", derivative=d,
                                        expected=expected, error=error if ok else None))
        if ok and at_jump[i]:
            report.max_relative_error_jumps = max(report.max_relative_error_jumps, error)
        elif ok:
            report.max_error_continuous = max(report.max_error_continuous, error)
    return report
