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
dg`` with cached cumulative values, so evaluating it inside the derivative
estimator stays cheap, and its exact ``right_limit`` makes the recovered
derivative at jump points exact to machine precision.
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
    QuadratureConfig, _atom_terms, _cumulative, _sample_finite, _slope_sums, integrate,
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


class IndefiniteIntegral:
    """F(t) = integral of f over [a, t) against dg, as a callable on [a, R].

    Cumulative values are cached at every breakpoint and jump of ``g``, so a
    call only performs one short Gauss-Legendre panel set, over the part of
    one slope segment between the last node and t.  ``batch(ts)`` evaluates
    many points in one pass and equals the calls one by one; through
    ``_sample_finite``, difference ladders and sampled continuity checks use
    it.  ``right_limit`` is exact: F(t+) = F(t) + f(t) * jump(t).
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

    def __call__(self, t):
        t = float(t)
        if not self.a <= t <= self.g.window[1]:
            raise WindowDomainError(f"t={t} outside [{self.a}, {self.g.window[1]}]")
        k = int(np.searchsorted(self._nodes, t, side="right")) - 1
        if k == self._nodes.size - 1 or self._nodes[k] == t:
            return float(self._cum[k])
        return float(self._cum[k] + integrate(self.g, self.f, self._nodes[k], t, self.quad))

    def batch(self, ts):
        """F at every point of ``ts`` as an array, equal to ``[F(t) for t in ts]``.

        A point on a node takes the cached value.  A point t past node n adds
        the atom at n and the one panel set over [n, t) to the value at n; the
        panel sets of all points share ``measure``'s quadrature kernel, so f
        is sampled in a few batched calls instead of once per point.
        """
        ts = np.asarray(ts, dtype=float)
        right = self.g.window[1]
        outside = ~((ts >= self.a) & (ts <= right))
        if outside.any():
            raise WindowDomainError(f"t={ts[outside][0]} outside [{self.a}, {right}]")
        nodes = self._nodes
        k = np.searchsorted(nodes, ts, side="right") - 1
        # [nodes[k], t) lies in one slope segment and holds no jump but the
        # one at nodes[k]; it is empty when t is a node
        inc = _slope_sums(self.g, self.f, nodes[k], ts, self.quad)
        at = np.flatnonzero((self._jumps[k] > 0.0) & (nodes[k] != ts))
        inc[at] += _atom_terms(self.f, nodes[k[at]], self._jumps[k[at]])
        return self._cum[k] + inc

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
