"""Topology relations between derivators, decided through classifications.

Each derivator induces a pseudometric topology whose open balls are the sets
where ``|g(s) - g(t)|`` is small.  Whether one derivator is continuous with
respect to another (and whether two derivators generate the same topology)
is decided exactly by two set inclusions between their classifications:
constancy of the reference must be constancy of the tested map, and every
discontinuity of the tested map must be a discontinuity of the reference.

``check_g_continuity_sampled`` complements the exact relations with a grid
diagnostic for arbitrary functions.  Quantifiers over all scales are not
finitely checkable, so its contract is one-sided: it can refute continuity
with a witness but can only report consistency, never prove it.
"""

from dataclasses import dataclass, field

import numpy as np

from .derivator import classify
from .errors import ConfigurationError, IntegrandError
from .measure import _sample_finite

__all__ = [
    "is_relatively_continuous",
    "topologies_equal",
    "check_g_continuity_sampled",
    "ContinuityProbe",
    "ContinuityReport",
]


def _intervals_subset(sub, sup):
    """Each interval of `sub` must sit inside some interval of `sup` (exact)."""
    return all(any(c <= a and b <= d for c, d in sup) for a, b in sub)


def is_relatively_continuous(g1, g2):
    """True iff g1 is continuous with respect to the topology of g2.

    Exact endpoint comparison: derivators meant to share structure must be
    built from shared classification data.
    """
    if g1.window != g2.window:
        raise ConfigurationError(f"window mismatch: {g1.window} != {g2.window}")
    c1, c2 = classify(g1), classify(g2)
    return _intervals_subset(c2.sorted_constancy(), c1.sorted_constancy()) and set(
        c1.discontinuities
    ) <= set(c2.discontinuities)


def topologies_equal(g1, g2):
    """True iff g1 and g2 induce the same topology (equal classifications)."""
    if g1.window != g2.window:
        raise ConfigurationError(f"window mismatch: {g1.window} != {g2.window}")
    return classify(g1) == classify(g2)


@dataclass
class ContinuityProbe:
    t: float
    eps: float
    verdict: str  # "CONSISTENT" | "REFUTED"
    delta: float  # largest ladder delta that worked, or the smallest tried
    witness: float | None = None  # sample refuting the smallest delta


@dataclass
class ContinuityReport:
    """Sampled g-continuity diagnostic; refutations are sound, consistency is not proof."""

    probes: list[ContinuityProbe] = field(default_factory=list)

    @property
    def refuted(self):
        return [p for p in self.probes if p.verdict == "REFUTED"]

    def consistent(self):
        return not self.refuted


def check_g_continuity_sampled(f, g, probes, grid_size=2000, ladder_decades=9):
    """Look for epsilon-delta counterexamples to g-continuity of f.

    For each probe ``(t, eps)`` a geometric delta ladder is scanned; a probe
    is REFUTED when even the smallest delta admits a grid sample ``s`` with
    ``|g(s) - g(t)| < delta`` but ``|f(s) - f(t)| >= eps``.  The sample grid
    is uniform over the window, augmented with the jump abscissas and points
    just right of them (where left-continuous maps hide their limits).
    ``f`` is sampled once on that grid, through ``f.batch`` when it offers
    one, and a non-finite value raises ``IntegrandError`` naming the sample.
    """
    left, right = g.window
    span = right - left
    base = np.linspace(left, right, grid_size)
    probe_ts = np.array([float(t) for t, _ in probes])
    # anchor points whose one-sided neighborhoods must be represented below
    # the finest ladder delta: jump abscissas of g and the probes themselves
    anchors = np.concatenate([g.jump_points, probe_ts])
    extras = [anchors]
    for off in (1e-7, 1e-9, 1e-11):
        for signed in (off * span, -off * span):
            pts = anchors + signed
            extras.append(pts[(pts >= left) & (pts <= right)])
    samples = np.unique(np.concatenate([base] + extras))
    g_samples = g.eval(samples)

    g_range = float(g_samples[-1] - g_samples[0]) if samples.size else 1.0
    delta0 = max(g_range, 1.0)

    f_samples = _sample_finite(f, samples, lambda v, q: IntegrandError(
        f"f returned {v} at t={samples[q]}", point=samples[q]))

    report = ContinuityReport()
    for t, eps in probes:
        t = float(t)
        i = np.searchsorted(samples, t)  # every probe is a sample
        f_gap = np.abs(f_samples - f_samples[i])
        gt = g_samples[i]
        verdict = None
        best_delta = None
        for j in range(ladder_decades):
            delta = delta0 * (10.0 ** -j)
            close = np.abs(g_samples - gt) < delta
            bad = close & (f_gap >= eps)
            if not bad.any():
                verdict = "CONSISTENT"
                best_delta = delta
                break
        if verdict is None:
            smallest = delta0 * (10.0 ** -(ladder_decades - 1))
            close = np.abs(g_samples - gt) < smallest
            bad = np.flatnonzero(close & (f_gap >= eps))
            report.probes.append(
                ContinuityProbe(
                    t=t,
                    eps=float(eps),
                    verdict="REFUTED",
                    delta=smallest,
                    witness=float(samples[bad[0]]),
                )
            )
        else:
            report.probes.append(
                ContinuityProbe(t=t, eps=float(eps), verdict=verdict, delta=best_delta)
            )
    return report
