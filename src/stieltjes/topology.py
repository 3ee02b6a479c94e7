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

from .derivator import _shared_window, _sorted_unique, classify
from .errors import IntegrandError, _pairs
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
    _shared_window((g1, g2))
    c1, c2 = classify(g1), classify(g2)
    return _intervals_subset(c2.sorted_constancy(), c1.sorted_constancy()) and set(
        c1.discontinuities
    ) <= set(c2.discontinuities)


def topologies_equal(g1, g2):
    """True iff g1 and g2 induce the same topology (equal classifications)."""
    _shared_window((g1, g2))
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


def check_g_continuity_sampled(f, g, probes):
    """Look for epsilon-delta counterexamples to g-continuity of f.

    Each probe ``(t, eps)`` has a delta ladder of nine rungs a decade apart,
    from max(1, range of g) down.  A grid sample ``s`` refutes a delta when
    ``|g(s) - g(t)| < delta`` but ``|f(s) - f(t)| >= eps``.  So the probe is
    CONSISTENT at the largest rung that is at most the smallest g-gap of the
    samples whose f-gap is at least eps, and REFUTED, with the first sample
    that refutes the smallest rung as witness, when no rung is.  The sample
    grid is 2000 uniform points over the window, augmented with the jump
    abscissas, the probes, and points on both sides of them (where
    left-continuous maps hide their limits).  ``f`` is sampled once on that
    grid, through ``f.batch`` when it offers one, and a non-finite value
    raises ``IntegrandError`` naming the sample.
    """
    left, right = g.window
    span = right - left
    base = np.linspace(left, right, 2000)
    probe_ts, eps = _pairs("probes", probes).T
    # anchor points whose one-sided neighborhoods must be represented below
    # the finest ladder delta: jump abscissas of g and the probes themselves
    anchors = np.concatenate([g.jump_points, probe_ts])
    extras = [anchors]
    for off in (1e-7, 1e-9, 1e-11):
        for signed in (off * span, -off * span):
            pts = anchors + signed
            extras.append(pts[(pts >= left) & (pts <= right)])
    samples = _sorted_unique(np.concatenate([base] + extras))
    g_samples = g.eval(samples)

    g_range = float(g_samples[-1] - g_samples[0]) if samples.size else 1.0
    delta0 = max(g_range, 1.0)

    f_samples = _sample_finite(f, samples, lambda v, q: IntegrandError(
        f"f returned {v} at t={samples[q]}", point=samples[q]))

    deltas = [delta0 * (10.0 ** -j) for j in range(9)]
    report = ContinuityReport()
    at = samples.searchsorted(probe_ts).tolist()  # every probe is a sample
    for t, eps, i in zip(probe_ts.tolist(), eps.tolist(), at):
        g_gap = np.abs(g_samples - g_samples[i])
        far = np.abs(f_samples - f_samples[i]) >= eps
        # a delta admits no refuting sample when it is at most every far one's g-gap
        closest = g_gap[far].min(initial=np.inf)
        refuted = closest < deltas[-1]  # even the smallest delta admits a refuting sample
        report.probes.append(ContinuityProbe(
            t=t, eps=eps, verdict="REFUTED" if refuted else "CONSISTENT",
            delta=next((d for d in deltas if d <= closest), deltas[-1]),
            witness=float(samples[np.flatnonzero(far & (g_gap < deltas[-1]))[0]])
            if refuted else None,
        ))
    return report
