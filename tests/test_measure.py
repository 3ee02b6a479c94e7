"""Interval measures, disjointification, and the LS integral.

Union preservation is checked by brute-force membership on fine grids; the
measure-sum identity runs to 1e-10 relative and integral additivity over sum
derivators to 1e-8, matching the package-wide contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes import (
    Derivator,
    IntegrandError,
    QuadratureConfig,
    WindowDomainError,
    disjointify,
    from_classification,
    integrate,
    measure_interval,
    outer_measure,
    sum_derivators,
)
from stieltjes import Classification

from conftest import random_cover, random_derivator


def idjump():
    return Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 1.0)])


def in_union(t, cover):
    return any(a <= t < b for a, b in cover)


class TestMeasureInterval:
    def test_identity(self):
        assert measure_interval(Derivator.identity((0, 2)), 0, 2) == 2.0

    def test_jump_included(self):
        assert measure_interval(idjump(), 0, 2) == 3.0

    def test_constancy_has_null_measure(self):
        g = from_classification(Classification(constancy=[(0.0, 1.0)]), window=(0.0, 1.0))
        assert measure_interval(g, 0.2, 0.8) == 0.0

    def test_validation(self):
        g = idjump()
        with pytest.raises(WindowDomainError):
            measure_interval(g, 1.0, 1.0)
        with pytest.raises(WindowDomainError):
            measure_interval(g, -0.5, 1.0)
        with pytest.raises(WindowDomainError):
            measure_interval(g, 1.0, 2.5)


class TestDisjointify:
    def test_overlapping_pair_merges(self):
        out = disjointify([(0, 2), (1, 3)])
        assert out == [(0, 3)]
        # brute force: union preserved on a fine grid
        for t in np.linspace(-0.5, 3.5, 1000):
            assert in_union(t, out) == in_union(t, [(0, 2), (1, 3)])

    def test_already_disjoint(self):
        assert disjointify([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_duplicates_collapse(self):
        assert disjointify([(0, 1), (0, 1)]) == [(0, 1)]

    def test_adjacent_intervals_merge(self):
        assert disjointify([(0, 1), (1, 2)]) == [(0, 2)]

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_union_preserved_hypothesis(self, raw):
        cover = [(min(a, b), max(a, b)) for a, b in raw if a != b]
        if not cover:
            return
        out = disjointify(cover)
        for (a1, b1), (a2, b2) in zip(out, out[1:]):
            assert b1 < a2  # strictly disjoint, no adjacency left
        probes = sorted({p for a, b in cover for p in (a, b, (a + b) / 2)})
        for t in probes:
            assert in_union(t, out) == in_union(t, cover)

    def test_g_length_never_increases(self, rng):
        for _ in range(20):
            g = random_derivator(rng)
            cover = random_cover(rng)
            out = disjointify(cover)
            len_in = sum(measure_interval(g, a, b) for a, b in cover)
            len_out = sum(measure_interval(g, a, b) for a, b in out)
            assert len_out <= len_in + 1e-12 * (1 + abs(len_in))


class TestOuterMeasure:
    def test_partition_of_interval(self):
        g = Derivator.identity((0, 2))
        assert outer_measure(g, [(0, 1), (1, 2)]) == 2.0

    def test_interval_straddling_jump(self):
        assert outer_measure(idjump(), [(0.5, 1.5)]) == 2.0

    def test_empty_cover(self):
        assert outer_measure(idjump(), []) == 0.0

    def test_monotone_under_union_growth(self, rng):
        for _ in range(50):
            g = random_derivator(rng)
            cover = random_cover(rng)
            bigger = cover + random_cover(rng)
            assert outer_measure(g, cover) <= outer_measure(g, bigger) + 1e-12

    def test_sum_measure_identity_randomized(self, rng):
        for _ in range(100):
            gs = [random_derivator(rng) for _ in range(int(rng.integers(2, 4)))]
            ghat = sum_derivators(gs)
            cover = random_cover(rng)
            parts = [outer_measure(g, cover) for g in gs]
            lhs = outer_measure(ghat, cover)
            assert abs(lhs - sum(parts)) <= 1e-10 * (1 + sum(abs(p) for p in parts))


class TestIntegrate:
    def test_constant_one_recovers_measure(self, rng):
        for _ in range(20):
            g = random_derivator(rng)
            a, b = np.sort(rng.uniform(*g.window, size=2))
            if a == b:
                continue
            got = integrate(g, lambda t: 1.0, a, b)
            assert got == pytest.approx(measure_interval(g, a, b), abs=1e-12)

    def test_identity_plus_jump_hand_value(self):
        # continuous part integral of t dt over [0,2) is 2, atom adds 1*1
        got = integrate(idjump(), lambda t: t, 0.0, 2.0)
        assert got == pytest.approx(3.0, rel=1e-13)

    def test_pure_atom(self):
        g = Derivator((0.0, 1.0), slopes=[0.0], jumps=[(0.5, 2.0)])
        got = integrate(g, lambda t: t * t, 0.0, 1.0)
        assert got == 0.25 * 2.0

    def test_atom_convention_half_open(self):
        g = idjump()
        # atom at the left endpoint is included, at the right excluded
        assert integrate(g, lambda t: 1.0, 1.0, 2.0) == pytest.approx(2.0, abs=1e-12)
        assert integrate(g, lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_exactness(self):
        g = Derivator.identity((0.0, 1.0))
        # Gauss-Legendre of order 8 integrates degree-15 polynomials exactly
        got = integrate(g, lambda t: t ** 9, 0.0, 1.0, QuadratureConfig(order=8, panels=2))
        assert got == pytest.approx(0.1, rel=1e-14)

    def test_zero_on_constancy(self):
        g = from_classification(Classification(constancy=[(0.2, 0.8)]), window=(0.0, 1.0))
        assert integrate(g, lambda t: np.cos(t), 0.3, 0.7) == 0.0

    def test_non_finite_sample_raises(self):
        g = Derivator.identity((0.0, 1.0))
        with pytest.raises(IntegrandError) as exc:
            integrate(g, lambda t: float("inf") if t > 0.5 else 1.0, 0.0, 1.0)
        assert exc.value.point is not None

    def test_constant_one_on_segment_boundaries(self, rng):
        # the segment window of integrate at its edge cases: ends on
        # breakpoints, jumps and the window ends, or inside the first or
        # last segment
        for _ in range(10):
            g = random_derivator(rng, max_segments=200, max_jumps=20)
            bp = g.breakpoints
            first, last = bp[0] + (bp[1] - bp[0]) / 3, bp[-1] - (bp[-1] - bp[-2]) / 3
            ends = np.unique(np.concatenate([bp, g.jump_points, [first, last]]))
            pairs = [(bp[0], bp[-1]), (bp[0], bp[1]), (bp[-2], bp[-1]), (first, last),
                     (bp[0], first), (last, bp[-1])]
            pairs += [tuple(np.sort(rng.choice(ends, 2, replace=False))) for _ in range(30)]
            for a, b in pairs:
                got = integrate(g, lambda t: 1.0, a, b)
                assert got == pytest.approx(g(b) - g(a), abs=1e-14)

    def test_additivity_over_sum_derivator(self, rng):
        for _ in range(25):
            gs = [random_derivator(rng) for _ in range(2)]
            ghat = sum_derivators(gs)
            a, b = np.sort(rng.uniform(0, 1, size=2))
            if b - a < 1e-3:
                continue
            f = lambda t: np.sin(3 * t) + t
            parts = [integrate(g, f, a, b) for g in gs]
            assert integrate(ghat, f, a, b) == pytest.approx(sum(parts), abs=1e-8)

    def test_interval_additivity(self, rng):
        g = random_derivator(rng)
        f = lambda t: np.exp(-t) * np.sin(5 * t)
        whole = integrate(g, f, 0.0, 1.0)
        split = integrate(g, f, 0.0, 0.37) + integrate(g, f, 0.37, 1.0)
        assert whole == pytest.approx(split, abs=1e-12)
