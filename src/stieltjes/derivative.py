"""Numerical Stieltjes derivatives and the fundamental-theorem round trip.

The Stieltjes derivative of ``f`` with respect to a derivator ``g`` at ``t``
is the limit of ``(f(s) - f(t)) / (g(s) - g(t))``.  Three regimes matter
numerically:

* ``t`` inside the local-constancy set of ``g``: the quotient makes no sense
  on any neighborhood, so the request is an error, not a number.
* ``g`` jumps at ``t``: the derivative is the exact quotient
  ``(f(t+) - f(t)) / (g(t+) - g(t))``.  The denominator is the stored jump;
  the numerator needs the right limit of ``f``, which we either read off
  exactly (objects exposing ``right_limit``, such as indefinite integrals)
  or estimate by extrapolating ``f(t + h)`` along a dyadic ladder.
* ``g`` continuous at ``t``: one-sided difference quotients are extrapolated
  (optionally Richardson-accelerated) and accepted when the two sides agree
  within ``tol_match``; if one side of ``g`` is flat at every tested scale,
  the other side alone decides.

``indefinite_integral`` builds ``F(t) = integral of f over [a, t) against
dg`` once, as a piecewise polynomial: a quadrature table of F at the
breakpoints and jumps of ``g``, and between them a Chebyshev fit of f,
integrated exactly (Greengard 1991; Trefethen, *Approximation Theory and
Approximation Practice*, ch. 19).  Evaluating F inside the derivative
estimator then samples f no more, and its exact ``right_limit`` makes the
recovered derivative at jump points exact to machine precision.
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
    _QUAD_BLOCK, QuadratureConfig, _atom_terms, _cumulative, _sample_finite, _slope_sums,
    integrate,
)

__all__ = [
    "DifferencingConfig",
    "stieltjes_derivative",
    "indefinite_integral",
    "IndefiniteIntegral",
    "check_ftc",
    "FtcReport",
]

_FLAT_EPS = 1e-14  # below this, a g-increment counts as numerically flat


@dataclass(frozen=True)
class DifferencingConfig:
    """Step ladder and matching tolerance for difference quotients."""

    h_sequence: tuple = tuple(2.0 ** -k for k in range(4, 21))
    richardson: bool = True
    tol_match: float = 1e-6

    def __post_init__(self):
        hs = tuple(float(h) for h in self.h_sequence)
        if len(hs) < 3 or any(h <= 0 for h in hs) or any(
            b >= a for a, b in zip(hs, hs[1:])
        ):
            raise ValueError("h_sequence must be >= 3 strictly decreasing positive steps")
        object.__setattr__(self, "h_sequence", hs)


def _extrapolate(values, richardson):
    """Limit estimate from a sequence computed along a halving step ladder.

    Assumes an error expansion in powers of h; one Richardson sweep removes
    the O(h) term, a second the O(h^2) term.
    """
    if not richardson or len(values) < 3:
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


def _right_limit(f, t, cfg, upper):
    """Estimate f(t+) by sampling along the ladder; exact when f exposes one."""
    exact = getattr(f, "right_limit", None)
    if exact is not None:
        return exact(t)
    samples = [f(t + h) for h in cfg.h_sequence if t + h <= upper]
    if len(samples) < 3:
        raise RightLimitError(f"not enough room right of t={t} to estimate f(t+)")
    if not all(math.isfinite(v) for v in samples):
        raise RightLimitError(f"f produced non-finite samples right of t={t}")
    if not _converged(samples, cfg.tol_match):
        raise RightLimitError(
            f"samples of f right of t={t} do not converge; the right limit may not exist"
        )
    return _extrapolate(samples, cfg.richardson)


def _one_sided_quotients(f, g, t, cfg, sign):
    """Quotients (f(s) - f(t)) / (g(s) - g(t)) along the ladder on one side.

    Steps that leave the window or where g is numerically flat are skipped;
    f(t) and f at the remaining steps come from one ``_sample_finite`` call.
    """
    left_w, right_w = g.window
    s = np.concatenate(([t], t + sign * np.asarray(cfg.h_sequence)))
    s = s[(s >= left_w) & (s <= right_w)]
    gs = g.eval(s)
    keep = np.concatenate(([True], np.abs(gs[1:] - gs[0]) >= _FLAT_EPS))
    s, gs = s[keep], gs[keep]
    fs = _sample_finite(f, s, lambda v, q: IntegrandError(
        f"f returned {v} at t={s[q]}", point=s[q]))
    return ((fs[1:] - fs[0]) / (gs[1:] - gs[0])).tolist()


def stieltjes_derivative(f, g, t, cfg=None):
    """The g-derivative of f at t.

    Raises ``DerivativeUndefinedError`` inside the constancy set of ``g`` (or
    where ``g`` is numerically flat on every tested scale on both sides), and
    ``NoDerivativeError`` when the one-sided estimates disagree beyond
    ``cfg.tol_match`` (both estimates are attached to the exception).  At a
    continuity point ``f`` is sampled through ``f.batch`` when it offers one.
    A non-finite value of f on the ladder, or at t itself at a jump point,
    raises ``IntegrandError``.
    """
    cfg = cfg or DifferencingConfig()
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
        limit = _right_limit(f, t, cfg, right_w)
        value = float(f(t))
        if not math.isfinite(value):
            raise IntegrandError(f"f returned {value} at t={t}", point=t)
        return (limit - value) / delta

    right = _one_sided_quotients(f, g, t, cfg, +1)
    left = _one_sided_quotients(f, g, t, cfg, -1)
    est_r = _extrapolate(right, cfg.richardson) if right else None
    est_l = _extrapolate(left, cfg.richardson) if left else None

    if est_r is None and est_l is None:
        raise DerivativeUndefinedError(
            f"the derivator is numerically flat around t={t} at every tested scale"
        )
    if est_r is None:
        return est_l
    if est_l is None:
        return est_r
    if abs(est_r - est_l) > cfg.tol_match * (1.0 + max(abs(est_r), abs(est_l))):
        raise NoDerivativeError(
            f"one-sided g-derivative estimates at t={t} disagree: "
            f"left={est_l}, right={est_r}",
            left=est_l,
            right=est_r,
        )
    return 0.5 * (est_r + est_l)


# The piecewise-polynomial fit of IndefiniteIntegral: f is interpolated at
# _FIT_NODES first-kind Chebyshev points of a piece (interior points only); a
# piece is resolved when its last three Chebyshev coefficients are at most
# _FIT_TAIL times its largest one, and is halved otherwise, up to _FIT_DEPTH
# times.  Evaluation works in blocks of _EVAL_BLOCK points, so the
# temporaries of a many-point batch stay small.
_FIT_NODES = 16
_FIT_TAIL = 1e-14
_FIT_DEPTH = 6
_EVAL_BLOCK = 256

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


def _fit_pieces(f, lo, hi):
    """Split each ``[lo[i], hi[i]]`` into pieces on which f is resolved.

    Returns the pieces' ends, the index i of the interval each comes from,
    whether it is resolved, and the Chebyshev coefficients of f on it.
    Pieces still unresolved after ``_FIT_DEPTH`` halvings are returned too.
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
        done = ok | (depth == _FIT_DEPTH) | (mid == lo) | (mid == hi)
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

    F is a piecewise polynomial built once.  The table of F at every
    breakpoint and jump of ``g`` (the nodes) comes from ``measure``'s
    quadrature, so F at a node equals a chain of ``integrate`` calls bit for
    bit.  Between two nodes, on a slope segment, f is interpolated at
    Chebyshev points, halving the piece until the interpolant is resolved to
    rounding.  F there is the table value, plus the atom at the node, plus
    the slope times the exact integral of the interpolant, summed by
    Clenshaw's recurrence.  So F(t) and ``batch(ts)`` do not sample f after
    the build, and ``right_limit`` samples it once, at the atom.

    ``integrate`` is the reference that F is tested against.  A piece still
    unresolved after ``_FIT_DEPTH`` halvings, such as one holding a kink of
    f, falls back with the rest of its interval to that quadrature:
    ``integrate`` from the node in a call, the same panel sums in ``batch``.
    ``n_unresolved`` counts such pieces.

    ``batch(ts)`` equals the calls one by one; through ``_sample_finite``,
    difference ladders and sampled continuity checks use it.
    ``right_limit`` is exact: F(t+) = F(t) + f(t) * jump(t).
    """

    def __init__(self, f, g, a, quad=None):
        left_w, right_w = g.window
        a = float(a)
        if not left_w <= a < right_w:
            raise WindowDomainError(f"a={a} outside [{left_w}, {right_w})")
        self.f = f
        self.g = g
        self.a = a
        self.quad = quad or QuadratureConfig(order=16, panels=4)
        nodes = np.unique(np.concatenate((
            g.breakpoints[(g.breakpoints >= a)],
            g.jump_points[(g.jump_points >= a)],
            [a],
        )))
        self._nodes = nodes
        self._cum = _cumulative(g, f, a, nodes, self.quad)
        self._jumps = np.append(g.jump(nodes[:-1]), 0.0)  # jump size at each node

        # F just right of each node: the table value plus the node's atom
        start = self._cum[:-1].copy()
        at = np.flatnonzero(self._jumps[:-1] > 0.0)
        start[at] += _atom_terms(f, nodes[at], self._jumps[at])

        lo, hi = nodes[:-1], nodes[1:]
        slope = g.slopes[g._segment(lo)]
        live = np.flatnonzero(slope != 0.0)
        flat = np.flatnonzero(slope == 0.0)
        plo, phi, of, ok, coef = _fit_pieces(f, lo[live], hi[live])
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

        # F at each piece's left end: the node's value plus the pieces before
        # it in its interval.  From an unresolved piece to the end of its
        # interval, F is integrated from the node, as a chain of integrate
        # calls would do.
        whole = anti.sum(axis=1)
        base = np.empty(plo.size)
        fitted = ok.copy()
        prev = -1
        for p, k in enumerate(of.tolist()):
            if k == prev:
                base[p] = base[p - 1] + whole[p - 1]
                fitted[p] &= fitted[p - 1]
            else:
                base[p] = start[k]
            prev = k

        self.n_unresolved = int(np.count_nonzero(~ok))
        self._lo = plo  # piece left ends, ascending; every node but the last is one
        self._of = of  # node index of each piece's interval
        self._fitted = fitted  # whether F on the piece comes from its fit
        # one row per piece: F at its left end, its midpoint, its half-width,
        # then the Chebyshev coefficients of F - base in the variable (t - mid) / half
        self._rows = np.column_stack((base, mid, half, anti))

    def __call__(self, t):
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
            inc = _slope_sums(self.g, self.f, nodes[kf], ts[fb], self.quad)
            at = np.flatnonzero(self._jumps[kf] > 0.0)
            inc[at] += _atom_terms(self.f, nodes[kf[at]], self._jumps[kf[at]])
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


def indefinite_integral(f, g, a, quad=None):
    """Build ``F(t) = integral of f over [a, t) dg`` with F(a) = 0."""
    return IndefiniteIntegral(f, g, a, quad=quad)


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

    def failures(self, tol):
        return [s for s in self.samples if s.status == "ok" and s.error is not None and s.error > tol]

    def ok(self, tol_continuous=1e-5, tol_jump_relative=1e-12):
        return (
            self.max_error_continuous <= tol_continuous
            and self.max_relative_error_jumps <= tol_jump_relative
            and not any(s.status in ("failed", "no-derivative") for s in self.samples)
        )


def check_ftc(f, g, a, b, sample_count=20, cfg=None, quad=None):
    """Differentiate the indefinite integral of f and compare against f.

    Samples every jump point in [a, b) plus ``sample_count`` uniform points;
    points inside the constancy set are recorded as skipped (the derivative
    is undefined there by design), and uniform points are nudged away from
    jumps so the dyadic ladder of the estimator is not polluted by atoms.
    """
    cfg = cfg or DifferencingConfig()
    F = indefinite_integral(f, g, a, quad=quad)
    constancy = classify(g).constancy
    jump_pts = [d for d in g.jump_points if a <= d < b]

    guard = 4.0 * cfg.h_sequence[-1]
    points = []
    for i in range(sample_count):
        t = a + (b - a) * (i + 0.5) / sample_count
        near = [d for d in jump_pts if abs(d - t) < guard]
        if near:
            t = near[0] + guard  # sample the smooth side next to the atom
            if not a <= t < b:
                continue
        points.append(t)

    report = FtcReport()
    for t in sorted(set(points)):
        if any(lo < t < hi for lo, hi in constancy):
            report.samples.append(FtcSample(t=t, status="skipped-constancy"))
            report.n_skipped_constancy += 1
            continue
        try:
            d = stieltjes_derivative(F, g, t, cfg)
        except (DerivativeUndefinedError,):
            report.samples.append(FtcSample(t=t, status="skipped-constancy"))
            report.n_skipped_constancy += 1
            continue
        except (NoDerivativeError, RightLimitError, IntegrandError):
            report.samples.append(FtcSample(t=t, status="no-derivative"))
            continue
        err = abs(d - f(t))
        report.samples.append(FtcSample(t=t, status="ok", derivative=d, expected=f(t), error=err))
        report.max_error_continuous = max(report.max_error_continuous, err)

    for d in jump_pts:
        try:
            got = stieltjes_derivative(F, g, d, cfg)
        except (NoDerivativeError, RightLimitError, DerivativeUndefinedError, IntegrandError):
            report.samples.append(FtcSample(t=d, status="no-derivative"))
            continue
        expected = f(d)
        rel = abs(got - expected) / (1.0 + abs(expected))
        report.samples.append(FtcSample(t=d, status="ok", derivative=got, expected=expected, error=rel))
        report.max_relative_error_jumps = max(report.max_relative_error_jumps, rel)

    return report
