"""Topology relations and the sampled continuity diagnostic."""

import numpy as np
import pytest

from stieltjes import (
    Classification,
    ConfigurationError,
    Derivator,
    IntegrandError,
    from_classification,
    sum_derivators,
)
from stieltjes.derivative import indefinite_integral
from stieltjes.topology import (
    check_g_continuity_sampled,
    is_relatively_continuous,
    topologies_equal,
)

from conftest import random_derivator


def idjump(window=(0.0, 2.0)):
    return Derivator.identity(window).with_jumps([(1.0, 1.0)])


class TestRelativeContinuity:
    def test_reflexive(self, rng):
        for _ in range(10):
            g = random_derivator(rng)
            assert is_relatively_continuous(g, g)

    def test_continuous_vs_jumpier_reference(self):
        g1 = Derivator.identity((0.0, 2.0))
        g2 = idjump()
        assert is_relatively_continuous(g1, g2)
        assert not is_relatively_continuous(g2, g1)

    def test_window_mismatch(self):
        with pytest.raises(ConfigurationError):
            is_relatively_continuous(Derivator.identity((0, 1)), Derivator.identity((0, 2)))

    def test_constancy_direction(self):
        flat = from_classification(Classification(constancy=[(0.5, 1.0)]), window=(0.0, 2.0))
        ident = Derivator.identity((0.0, 2.0))
        # identity is constant nowhere, so it cannot be flat-continuous
        assert not is_relatively_continuous(ident, flat)
        assert is_relatively_continuous(flat, ident)

    def test_transitive_on_random_triples(self, rng):
        hits = 0
        for _ in range(300):
            g1, g2, g3 = (random_derivator(rng) for _ in range(3))
            if is_relatively_continuous(g1, g2) and is_relatively_continuous(g2, g3):
                hits += 1
                assert is_relatively_continuous(g1, g3)
        assert hits > 0  # the chain premise fired at least sometimes


class TestTopologiesEqual:
    def test_self(self, rng):
        g = random_derivator(rng)
        assert topologies_equal(g, g)

    def test_same_class_different_shapes(self):
        # same jump set, different continuous profiles and jump sizes:
        # both strictly increasing off the shared atoms -> same topology
        points = [1.0 / n for n in range(1, 8)]
        c = Classification(discontinuities=points)
        g = from_classification(c, window=(0.0, 2.0))
        ts = np.linspace(0.0, 2.0, 41)
        cubic = Derivator(
            (0.0, 2.0),
            breakpoints=ts,
            slopes=np.diff(ts ** 3) / np.diff(ts),  # sampled strictly increasing map
            jumps=[(d, 0.3 + 0.1 * i) for i, d in enumerate(points)],
        )
        assert topologies_equal(g, cubic)

    def test_constancy_breaks_equality(self):
        ident = Derivator.identity((0.0, 2.0))
        flat = from_classification(Classification(constancy=[(0.0, 1.0)]), window=(0.0, 2.0))
        assert not topologies_equal(ident, flat)

    def test_equivalent_to_two_way_continuity(self, rng):
        for _ in range(100):
            g1 = random_derivator(rng)
            g2 = random_derivator(rng)
            both = is_relatively_continuous(g1, g2) and is_relatively_continuous(g2, g1)
            assert both == topologies_equal(g1, g2)

    def test_independent_builds_from_one_classification(self, rng):
        from conftest import random_classification

        for _ in range(25):
            c = random_classification(rng)
            g1 = from_classification(c, window=(0.0, 1.0))
            g2 = from_classification(c, window=(0.0, 1.0), weights=[0.7] * len(c.discontinuities))
            assert topologies_equal(g1, g2)


class TestSampledContinuity:
    def test_g_is_g_continuous(self, rng):
        g = random_derivator(rng)
        probes = [(t, 0.05) for t in np.linspace(0.1, 0.9, 5)]
        report = check_g_continuity_sampled(g.eval, g, probes)
        assert report.consistent()

    def test_identity_refuted_against_flat_derivator(self):
        # f(t) = t cannot be continuous for a derivator that never moves
        g = Derivator.constant((0.0, 2.0), value=0.0)
        report = check_g_continuity_sampled(lambda t: t, g, [(1.0, 0.1)])
        assert [p.verdict for p in report.probes] == ["REFUTED"]
        assert report.probes[0].witness is not None

    def test_constant_f_consistent(self, rng):
        g = random_derivator(rng)
        report = check_g_continuity_sampled(lambda t: 42.0, g, [(0.3, 1e-6), (0.8, 1e-6)])
        assert report.consistent()

    def test_refutation_at_foreign_jump(self):
        # f shares the jump of g1, but the reference derivator is continuous
        # there: samples just right of the jump are g2-close yet far in f
        g1 = idjump()
        g2 = Derivator.identity((0.0, 2.0))
        report = check_g_continuity_sampled(g1.eval, g2, [(1.0, 0.5)])
        assert [p.verdict for p in report.probes] == ["REFUTED"]

    def test_non_finite_f_raises(self):
        g = Derivator((0.0, 1.0))
        with pytest.raises(IntegrandError) as exc:
            check_g_continuity_sampled(lambda t: float("nan"), g, [(0.5, 0.1)])
        assert exc.value.point == 0.0

    def test_batched_f_gives_the_scalar_report(self, rng):
        g = random_derivator(rng, max_segments=50, max_jumps=5)
        F = indefinite_integral(lambda t: np.cos(3.0 * t) + 2.0, g, 0.0)
        probes = [(float(t), 0.05) for t in rng.uniform(0.0, 1.0, size=6)] + [(g.window[1], 0.05)]
        batched = check_g_continuity_sampled(F, g, probes)
        scalar = check_g_continuity_sampled(lambda t: F(t), g, probes)
        assert batched.probes == scalar.probes

    def test_vector_reduction_matches_componentwise(self, rng):
        # sampled continuity against the sum derivator agrees with the same
        # check done in the max-norm of the component family; the two
        # g-distances bracket each other within a factor of the dimension
        for _ in range(10):
            g1 = random_derivator(rng)
            g2 = random_derivator(rng)
            ghat = sum_derivators([g1, g2])
            f = g1.eval  # scalar test function
            probes = [(float(t), 0.05) for t in rng.uniform(0.05, 0.95, size=4)]
            via_hat = check_g_continuity_sampled(f, ghat, probes)

            samples = np.linspace(0.0, 1.0, 2000)
            samples = np.unique(np.concatenate([samples, ghat.jump_points,
                                                np.minimum(ghat.jump_points + 1e-9, 1.0)]))
            d1 = g1.eval(samples)
            d2 = g2.eval(samples)
            fs = f(samples)
            vec_range = max(d1[-1] - d1[0], d2[-1] - d2[0])
            for (t, eps), probe in zip(probes, via_hat.probes):
                dist = np.maximum(np.abs(d1 - g1.eval(t)), np.abs(d2 - g2.eval(t)))
                fgap = np.abs(fs - f(t))
                vec_refuted = True
                for j in range(9):
                    delta = max(float(vec_range), 1.0) * 10.0 ** -j
                    if not np.any((dist < delta) & (fgap >= eps)):
                        vec_refuted = False
                        break
                assert vec_refuted == (probe.verdict == "REFUTED")

    def test_one_pass_matches_the_nine_rung_scan(self, rng):
        verdicts, deltas = set(), set()
        for _ in range(40):
            g = random_derivator(rng, max_segments=8, max_jumps=3)
            other = random_derivator(rng, max_segments=8, max_jumps=3)
            f = _Recorded([g.eval, other.eval, lambda t: np.sin(20.0 * t)][rng.integers(3)])
            probes = [(float(t), float(eps)) for t, eps in
                      zip(rng.uniform(0.0, 1.0, 8), 10.0 ** rng.uniform(-6.0, 0.5, 8))]
            probes += [(float(d), 1e-3) for d in other.jump_points]
            got = [(p.verdict, p.delta.hex(), p.witness)
                   for p in check_g_continuity_sampled(f, g, probes).probes]
            assert got == _nine_rung_scan(f.samples, f(f.samples), g.eval(f.samples), probes)
            verdicts.update(v for v, _, _ in got)
            deltas.update(d for _, d, _ in got)
        assert verdicts == {"CONSISTENT", "REFUTED"}
        assert len(deltas) > 9  # rungs of several ladders

    def test_g_gaps_that_equal_a_rung(self):
        # delta0 = 1: a g-gap equal to a rung does not refute it, and a witness
        # must refute the smallest rung, 1e-8, strictly
        for g, f, t, delta, refuted in [
            (Derivator.constant((0.0, 1.0)).with_jumps([(0.5, 1.0)]),
             lambda s: float(s > 0.5), 0.25, 1.0, False),
            (Derivator.constant((0.0, 1.0)).with_jumps([(0.2, 10.0 ** -8)]),
             lambda s: float(s < 0.1 or 0.7 < s < 0.8), 0.5, 10.0 ** -8, True),
        ]:
            f = _Recorded(np.vectorize(f, otypes=[float]))
            [probe] = check_g_continuity_sampled(f, g, [(t, 0.5)]).probes
            witness = float(f.samples[f.samples > 0.7][0]) if refuted else None
            assert (probe.delta, probe.witness) == (delta, witness)
            assert [(probe.verdict, probe.delta.hex(), probe.witness)] == _nine_rung_scan(
                f.samples, f(f.samples), g.eval(f.samples), [(t, 0.5)])


class _Recorded:
    """f, keeping the array of samples it was batched on."""

    def __init__(self, f):
        self.f = f

    def __call__(self, t):
        return self.f(t)

    def batch(self, ts):
        self.samples = ts
        return self.f(ts)


def _nine_rung_scan(samples, f_samples, g_samples, probes):
    """Each probe's verdict, delta bits and witness: every rung of the ladder
    is a mask over all samples, from the largest delta down."""
    delta0 = max(float(g_samples[-1] - g_samples[0]), 1.0)
    out = []
    for t, eps in probes:
        i = np.searchsorted(samples, t)
        f_gap = np.abs(f_samples - f_samples[i])
        for j in range(9):
            delta = delta0 * (10.0 ** -j)
            bad = (np.abs(g_samples - g_samples[i]) < delta) & (f_gap >= eps)
            if not bad.any():
                out.append(("CONSISTENT", delta.hex(), None))
                break
        else:
            out.append(("REFUTED", delta.hex(), float(samples[np.flatnonzero(bad)[0]])))
    return out
