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
Approximation Practice*, ch. 19).  Evaluating F inside the derivative
estimator then samples f no more, and its exact ``right_increment`` makes
the recovered derivative at jump points exact to machine precision.
``measure.integrate`` is the reference that F is tested against; a piece
where the fit does not resolve f, such as one holding a kink, falls back to
that quadrature.
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
from .measure import (
    _QUAD_BLOCK, QuadratureConfig, _atom_terms, _sample_finite, _slope_sums, integrate,
)

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


def _converged(values, tol):
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    if not diffs:
        return True
    scale = 1.0 + abs(values[-1])
    if diffs[-1] <= tol * scale:
        return True
    # non-convergent sequences keep oscillating at full amplitude
    return diffs[-1] < 0.5 * max(diffs)


def _right_limit(f, t, upper):
    """Estimate f(t+) by sampling f along the step ladder right of t."""
    samples = [f(t + h) for h in _H_STEPS if t + h <= upper]
    if len(samples) < 3:
        raise RightLimitError(f"not enough room right of t={t} to estimate f(t+)")
    if not all(math.isfinite(v) for v in samples):
        raise RightLimitError(f"f produced non-finite samples right of t={t}")
    if not _converged(samples, _TOL_MATCH):
        raise RightLimitError(
            f"samples of f right of t={t} do not converge; the right limit may not exist"
        )
    return _extrapolate(samples)


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

    for a, b in classify(g).constancy:
        if a < t < b:
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


# The piecewise-polynomial fit of IndefiniteIntegral: f is interpolated at
# _FIT_NODES first-kind Chebyshev points of a piece (interior points only); a
# piece is resolved when its last three Chebyshev coefficients are at most
# _FIT_TAIL times its largest one, and is halved otherwise, up to _FIT_DEPTH
# times, and so is one wider than 1/_FIT_SPAN of the window.  Evaluation works
# in blocks of _EVAL_BLOCK points, so the temporaries of a many-point batch
# stay small.
_FIT_NODES = 16
_FIT_SPAN = 16
_FIT_TAIL = 1e-14
_FIT_DEPTH = 6
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


def _fit_pieces(f, lo, hi, widest):
    """Split each ``[lo[i], hi[i]]`` into pieces on which f is resolved.

    Returns the pieces' ends, the index i of the interval each comes from,
    whether it is resolved, and the Chebyshev coefficients of f on it.
    Pieces still unresolved after ``_FIT_DEPTH`` halvings are returned too.
    A piece wider than ``widest`` is halved even when resolved: no two
    neighbouring samples lie more than ``(pi / 32) * min(hi[i] - lo[i], widest)`` apart.
    """
    of = np.arange(lo.size)
    out = []
    for depth in range(_FIT_DEPTH + 1):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        vals = _sample_blocks(f, (mid[:, None] + half[:, None] * _CHEB_X).ravel())
        coef = vals.reshape(lo.size, _FIT_NODES) @ _CHEB_FIT.T
        size = np.abs(coef)
        ok = size[:, -3:].max(axis=1) <= _FIT_TAIL * size.max(axis=1)
        # a piece too narrow to halve in floating point is kept as it is
        done = ok & (hi - lo <= widest) | (depth == _FIT_DEPTH) | (mid == lo) | (mid == hi)
        out.append((lo[done], hi[done], of[done], ok[done], coef[done]))
        split = ~done
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
    at Chebyshev points, halving each piece until the interpolant is
    resolved to rounding and the piece is at most 1/16 of the window wide.
    F there is F at the node, plus the node's atom, plus the slope times the
    exact integral of the interpolant, summed by Clenshaw's recurrence; F at
    the next node adds the integrals of all the interval's pieces.  So F
    agrees with a chain of ``integrate`` calls to rounding, F(t) and
    ``batch(ts)`` do not sample f after the build, and ``right_limit``
    samples it once, at the atom.  The build samples f at every atom, and
    no two neighbouring samples in a slope interval of width w lie more than
    (pi / 32) * min(w, W / 16) apart, W the window's width: f non-finite on
    a wider patch raises ``IntegrandError`` at build.

    A piece still unresolved after ``_FIT_DEPTH`` halvings, such as one
    holding a kink of f, falls back with the rest of its interval to the
    quadrature of ``measure`` with the rule ``quad``: ``integrate`` from the
    node in a call, the same panel sums in ``batch`` and for F at the
    interval's end.  ``n_unresolved`` counts such pieces.

    ``batch(ts)``, which ``F(ts)`` calls on an array, equals the calls one by
    one; through ``_sample_finite``, difference ladders and sampled
    continuity checks use it, and so does the a-priori bound in ``solver``.
    ``right_limit`` is exact: F(t+) = F(t) + f(t) * jump(t).
    """

    quad = QuadratureConfig(order=16, panels=4)

    def __init__(self, f, g, a):
        left_w, right_w = g.window
        a = float(a)
        if not left_w <= a < right_w:
            raise WindowDomainError(f"a={a} outside [{left_w}, {right_w})")
        self.f = f
        self.g = g
        self.a = a
        bp, jp = g.breakpoints, g.jump_points
        self._nodes = nodes = np.unique(np.concatenate((bp[bp >= a], jp[jp >= a], [a])))
        lo, hi = nodes[:-1], nodes[1:]
        slope = g.slopes[g._segment(lo)]
        live = np.flatnonzero(slope != 0.0)
        flat = np.flatnonzero(slope == 0.0)
        plo, phi, of, ok, coef = _fit_pieces(f, lo[live], hi[live], (right_w - left_w) / _FIT_SPAN)
        of = live[of]
        # a flat interval is one resolved piece with F constant on it
        plo, phi = np.concatenate((plo, lo[flat])), np.concatenate((phi, hi[flat]))
        of = np.concatenate((of, flat))
        ok = np.concatenate((ok, np.ones(flat.size, bool)))
        anti = np.concatenate((coef @ _CHEB_INT.T, np.zeros((flat.size, _FIT_NODES + 1))))
        order = np.argsort(plo, kind="stable")
        plo, phi, of, ok, anti = plo[order], phi[order], of[order], ok[order], anti[order]
        mid, half = (plo + phi) / 2.0, (phi - plo) / 2.0
        anti *= (slope[of] * half)[:, None]

        # the table: each interval adds its atom and the exact integrals of
        # its pieces or, where a piece is unresolved, the quadrature that a
        # chain of integrate calls takes
        whole = anti.sum(axis=1)
        inc = np.bincount(of, weights=whole, minlength=lo.size)
        rough = np.unique(of[~ok])
        inc[rough] = _slope_sums(g, f, lo[rough], hi[rough], self.quad)
        jumps = g.jump(lo)
        at = np.flatnonzero(jumps > 0.0)
        self._atoms = np.zeros(lo.size)  # f times the jump, at each node
        self._atoms[at] = _atom_terms(f, lo[at], jumps[at])
        self._cum = np.concatenate(([0.0], np.cumsum(inc + self._atoms)))
        start = self._cum[:-1] + self._atoms  # F just right of each node

        # F at each piece's left end: F right of its node plus the pieces
        # before it in its interval.  From an unresolved piece to the end of
        # its interval, F is integrated from the node, as a chain of integrate
        # calls would do.
        first = np.searchsorted(of, of)  # the first piece of each piece's interval
        before, bad = np.cumsum(whole) - whole, np.cumsum(~ok)
        base = start[of] + (before - before[first])
        fitted = bad == (bad - ~ok)[first]

        self.n_unresolved = int(np.count_nonzero(~ok))
        self._lo = plo  # piece left ends, ascending; every node but the last is one
        self._of = of  # node index of each piece's interval
        self._fitted = fitted  # whether F on the piece comes from its fit
        # one row per piece: F at its left end, its midpoint, its half-width,
        # then the Chebyshev coefficients of F - base in the variable (t - mid) / half
        self._rows = np.column_stack((base, mid, half, anti))

    def __call__(self, t):
        if getattr(t, "ndim", 0):  # np.ndim costs a microsecond a call
            return self.batch(t)
        t = float(t)
        if not self.a <= t <= self.g.window[1]:
            raise WindowDomainError(f"t={t} outside [{self.a}, {self.g.window[1]}]")
        if t == self._nodes[-1]:
            return float(self._cum[-1])
        p = int(np.searchsorted(self._lo, t, side="right")) - 1
        k = int(self._of[p])
        if t == self._nodes[k]:
            return float(self._cum[k])
        if not self._fitted[p]:
            return float(self._cum[k] + integrate(self.g, self.f, self._nodes[k], t, self.quad))
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
        nodes = self._nodes
        p = np.searchsorted(self._lo, ts, side="right") - 1
        k = self._of[p]
        rows = self._rows[p]
        out = rows[:, 0] + _clenshaw(rows[:, 3:].T, (ts - rows[:, 1]) / rows[:, 2])
        # [nodes[k], t) of an unresolved piece lies in one slope segment and
        # holds no jump but the one at nodes[k]
        fb = np.flatnonzero(~self._fitted[p] & (nodes[k] < ts) & (ts < nodes[-1]))
        if fb.size:
            kf = k[fb]
            inc = _slope_sums(self.g, self.f, nodes[kf], ts[fb], self.quad) + self._atoms[kf]
            out[fb] = self._cum[kf] + inc
        on = np.flatnonzero(nodes[k] == ts)
        out[on] = self._cum[k[on]]
        out[ts == nodes[-1]] = self._cum[-1]
        return out

    def right_limit(self, t):
        """F(t+), exact: the atom at t contributes f(t) * jump(t)."""
        return self(t) + self.right_increment(t)

    def right_increment(self, t):
        """F(t+) - F(t) without cancellation; zero off the jump set."""
        return self.f(t) * self.g.jump(t)


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


def _compared(f, t, derivative, relative):
    """The sample comparing ``derivative`` with ``f(t)``; ``"failed"`` if either is not finite."""
    expected = float(f(t))
    error = abs(derivative - expected)
    if relative:
        error /= 1.0 + abs(expected)
    if not math.isfinite(error):
        return FtcSample(t=t, status="failed", derivative=derivative, expected=expected)
    return FtcSample(t=t, status="ok", derivative=derivative, expected=expected, error=error)


def check_ftc(f, g, a, b, sample_count=20):
    """Differentiate the indefinite integral of f and compare against f.

    Samples every jump point in [a, b) plus ``sample_count`` uniform points;
    points inside the constancy set are recorded as skipped (the derivative
    is undefined there by design), and uniform points are nudged away from
    jumps so the dyadic ladder of the estimator is not polluted by atoms.
    F is defined on [a, R], R the right end of the window, and ladder steps
    outside it are dropped, as ``stieltjes_derivative`` drops those outside
    the window.  The ladders of the uniform points where g is continuous
    are evaluated ``_LADDER_BLOCK`` points at a time, with one ``g.eval``
    and one ``F.batch`` call per block; the points of a block that meets a
    non-finite value of F are evaluated again one at a time, so every
    sample gets the status its own ladder gives.  Jump points go through
    ``stieltjes_derivative``.  f is evaluated once per sample; where f(t)
    or the derivative is not finite, the sample is ``"failed"``.  ``a >= b``
    and ``b > R`` raise ``WindowDomainError``.
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
    ts = np.array(sorted(set(points)), dtype=float)

    # t lies in one of the disjoint open intervals (lo, hi) exactly when more
    # of them start below t than end at or below it
    lo, hi = np.array(classify(g).sorted_constancy(), dtype=float).reshape(-1, 2).T
    skipped = np.searchsorted(lo, ts, side="left") > np.searchsorted(hi, ts, side="right")
    continuous = ~skipped & (ts >= g.window[0]) & (ts < g.window[1])
    continuous[continuous] = g.jump(ts[continuous]) == 0.0
    plain = np.flatnonzero(continuous)
    estimates = {}
    for s in range(0, plain.size, _LADDER_BLOCK):
        block = plain[s:s + _LADDER_BLOCK]
        try:
            estimates.update(zip(block.tolist(), _ladder_estimates(F, g, ts[block], a, right)))
        except IntegrandError:
            pass  # the block's points are evaluated one at a time below

    report = FtcReport()
    for i, t in enumerate(ts.tolist()):
        if skipped[i]:
            report.samples.append(FtcSample(t=t, status="skipped-constancy"))
            report.n_skipped_constancy += 1
            continue
        try:
            if continuous[i]:
                est = estimates.get(i) or _ladder_estimates(F, g, ts[i:i + 1], a, right)[0]
                d = _decide(t, *est)
            else:
                d = stieltjes_derivative(F, g, t)
        except DerivativeUndefinedError:
            report.samples.append(FtcSample(t=t, status="skipped-constancy"))
            report.n_skipped_constancy += 1
            continue
        except (NoDerivativeError, RightLimitError, IntegrandError):
            report.samples.append(FtcSample(t=t, status="no-derivative"))
            continue
        sample = _compared(f, t, d, relative=False)
        report.samples.append(sample)
        if sample.status == "ok":
            report.max_error_continuous = max(report.max_error_continuous, sample.error)

    for d in jump_pts:
        try:
            got = stieltjes_derivative(F, g, d)
        except (NoDerivativeError, RightLimitError, DerivativeUndefinedError, IntegrandError):
            report.samples.append(FtcSample(t=d, status="no-derivative"))
            continue
        sample = _compared(f, d, got, relative=True)
        report.samples.append(sample)
        if sample.status == "ok":
            report.max_relative_error_jumps = max(report.max_relative_error_jumps, sample.error)

    return report
