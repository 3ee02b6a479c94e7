"""Derivator representation: evaluation, jumps, sums, classification.

Left-continuity and jump bookkeeping are exact (no tolerances); additivity
of sums is checked to 1e-12 relative.
"""

import math
import tracemalloc

import numpy as np
import pytest

from stieltjes import (
    Classification,
    ConfigurationError,
    Derivator,
    WindowDomainError,
    classify,
    from_classification,
    sum_derivators,
)
from stieltjes.derivator import _sorted_unique

from conftest import random_classification, random_derivator


def idjump():
    return Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 1.0)])


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0, 1.0, 3.0, 3.0, -1.5],
    [0.0, -0.0, 1.0, -0.0],
    [-0.0, 0.0, -0.0],
    (np.random.default_rng(5).integers(-8, 8, 300) / 4).tolist(),
    [2.5],
    [],
])
def test_sorted_unique_is_np_unique(values):
    # np.unique sorts and keeps the first of each run; of +0.0 and -0.0 that
    # is the one the sort puts first, so the signs must agree too
    a = np.array(values, dtype=float)
    got, want = _sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(a, values)  # the input is not sorted in place


class TestEval:
    def test_jump_excluded_at_its_own_point(self):
        g = idjump()
        assert g.eval(1.0) == 1.0

    def test_jump_counted_strictly_after(self):
        g = idjump()
        assert g.eval(2.0) == 3.0

    def test_constant_derivator(self):
        g = Derivator.constant((0.0, 1.0), value=5.0)
        for t in np.linspace(0, 1, 7):
            assert g.eval(t) == 5.0

    def test_eval_right(self):
        g = idjump()
        assert g.eval_right(1.0) == 2.0
        assert g.eval_right(0.5) == 0.5
        gc = Derivator.constant((0.0, 1.0), value=3.0)
        assert gc.eval_right(0.25) == 3.0

    def test_jump_lookup_is_exact(self):
        g = idjump()
        assert g.jump(1.0) == 1.0
        assert g.jump(1.5) == 0.0
        assert g.jump(np.nextafter(1.0, 0.0)) == 0.0

    def test_outside_window_raises(self):
        g = idjump()
        with pytest.raises(WindowDomainError):
            g.eval(-0.1)
        with pytest.raises(WindowDomainError):
            g.eval(2.5)
        with pytest.raises(WindowDomainError):
            g.eval_right(2.0)  # right limit needs t < R
        with pytest.raises(WindowDomainError):
            g.jump(2.0)

    def test_vectorized_eval_matches_scalar(self, rng):
        g = random_derivator(rng)
        ts = rng.uniform(*g.window, size=50)
        vec = g.eval(ts)
        assert vec.shape == ts.shape
        for t, v in zip(ts, vec):
            assert g.eval(t) == v

    def test_left_continuity_limit(self):
        g = idjump()
        for h in [1e-4, 1e-6, 1e-8]:
            assert abs(g.eval(1.0) - g.eval(1.0 - h)) <= 2 * h
            # the right limit stays a full jump away
            assert g.eval(1.0 + h) >= 2.0


def _out_of_place_segment(g, t):
    """The slope segments as they were found before ``_segment`` worked in place."""
    return np.minimum(np.searchsorted(g.breakpoints, t, side="right") - 1, g.slopes.size - 1)


class TestSegmentInPlace:
    def test_the_bits_of_the_out_of_place_formula(self, rng):
        for _ in range(20):
            g = random_derivator(rng, max_segments=12, max_jumps=4)
            t = np.concatenate((rng.uniform(*g.window, 300), g.breakpoints, g.jump_points, g.window))
            k = _out_of_place_segment(g, t)
            expected = (t - g.breakpoints[k]) * g.slopes[k] + g._cont_at_bp[k]
            atoms = g._cum_jumps[np.searchsorted(g.jump_points, t)]
            assert np.array_equal(g._segment(t), k)
            assert g.continuous(t).tobytes() == expected.tobytes()
            assert g.eval(t).tobytes() == (expected + atoms).tobytes()
            for grid in (lambda a: a.reshape(20, 15), lambda a: a.reshape(15, 20).T):  # C and Fortran order
                assert g.continuous(grid(t[:300])).tobytes() == grid(expected[:300]).tobytes()
                assert g.eval(grid(t[:300])).tobytes() == grid((expected + atoms)[:300]).tobytes()
            assert [g.continuous(v) for v in t[:5].tolist()] == expected[:5].tolist()

    def test_a_grid_costs_one_index_array(self):
        # searchsorted, its - 1 and np.minimum each built an index array: 2 floats a point at the peak;
        # continuous still peaks at 3 (the indices, one table read and its output)
        g = Derivator((0.0, 1.0), breakpoints=np.linspace(0.0, 1.0, 65), slopes=np.linspace(0.0, 2.0, 64))

        def peak(n):
            t = np.linspace(0.0, 1.0, n)
            tracemalloc.start()
            try:
                g._segment(t)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40_000) - peak(10_000) <= 30_000 * 1 * 8 * 1.05


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            Derivator((1.0, 1.0))

    @pytest.mark.parametrize("window", [(0.0, 1.0, 5.0), (0.0,), ()])
    def test_a_window_without_two_entries_is_refused(self, window):
        # the 5 used to be dropped, and the shorter ones to raise IndexError
        with pytest.raises(ConfigurationError, match="window must be a finite pair"):
            Derivator(window)

    @pytest.mark.parametrize("window, message", [
        (0.5, "window must be a sequence of finite real numbers, got 0.5"),
        (("0", "1"), r"window\[0\] must be a finite real number, got '0'"),
        ((0, 10**400), r"window\[1\] must be a finite real number"),
        ((0.0, math.nan), r"window\[1\] must be a finite real number, got nan"),
    ])
    def test_a_window_that_is_not_two_numbers_is_refused(self, window, message):
        # a scalar used to raise a raw TypeError, strings to be read by float() and
        # 10**400 to raise OverflowError
        with pytest.raises(ConfigurationError, match=message):
            Derivator(window)

    @pytest.mark.parametrize("jumps", [[("0.5", "1")], [(0.5, True)], [0.5], 0.5, [(0.5, 1.0, 2.0)]])
    def test_with_jumps_reads_its_jumps_as_the_constructor_does(self, jumps):
        # the first two used to be read by float()
        with pytest.raises(ConfigurationError, match="jump"):
            Derivator.identity((0.0, 1.0)).with_jumps(jumps)

    def test_negative_slope(self):
        with pytest.raises(ConfigurationError):
            Derivator((0, 1), breakpoints=[0, 1], slopes=[-1.0])

    def test_jump_on_boundary(self):
        with pytest.raises(ConfigurationError):
            Derivator((0, 1), jumps=[(0.0, 1.0)])
        with pytest.raises(ConfigurationError):
            Derivator((0, 1), jumps=[(1.0, 1.0)])

    def test_nonpositive_jump(self):
        with pytest.raises(ConfigurationError):
            Derivator((0, 1), jumps=[(0.5, 0.0)])

    # a bool and a string used to be read by float(), and 10**400 to raise OverflowError
    @pytest.mark.parametrize("anchor", [float("nan"), float("inf"), -float("inf"), True, "2", 10**400, None])
    def test_non_finite_anchor(self, anchor):
        with pytest.raises(ConfigurationError, match="anchor must be a finite real number"):
            Derivator((0.0, 1.0), anchor=anchor)

    def test_breakpoints_must_span_window(self):
        with pytest.raises(ConfigurationError):
            Derivator((0, 1), breakpoints=[0, 0.5], slopes=[1.0])

    @pytest.mark.parametrize("breakpoints, slopes, jumps, message", [
        ([[0.0, 1.0]], [1.0], (), r"breakpoints\[0\] must be a finite real number"),
        ([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0], (), "strictly increasing"),
        ([0.0, 0.6, 0.4, 1.0], [1.0, 1.0, 1.0], (), "strictly increasing"),
        ([0.0, 0.5, 1.0], [1.0], (), "expected 2 slopes"),
        ([0.0, 1.0], [1.0], [(0.5, 1.0), (0.5, 2.0)], "jump points must be distinct"),
        # strings and bools used to be read by float(), and malformed jumps to raise a raw
        # TypeError or ValueError
        ([0.0, 1.0], ["2"], (), r"slopes\[0\] must be a finite real number, got '2'"),
        ([False, 1.0], [1.0], (), r"breakpoints\[0\] must be a finite real number, got False"),
        ([0.0, 1.0], [1.0], [("0.5", "1")], r"jumps\[0\]\[0\] must be a finite real number, got '0.5'"),
        ([0.0, 1.0], [1.0], 0.5, r"jumps must be an iterable of pairs, got 0.5"),
        ([0.0, 1.0], [1.0], [0.5], r"jumps\[0\] must be a sequence of finite real numbers"),
        ([0.0, 1.0], [1.0], [(0.5, 1.0, 2.0)], r"jumps\[0\] must be a pair, got \[0.5, 1.0, 2.0\]"),
        ([0.0, 1.0], [1.0], None, r"jumps must be an iterable"),
    ])
    def test_refused_grids_slopes_and_jumps(self, breakpoints, slopes, jumps, message):
        with pytest.raises(ConfigurationError, match=message):
            Derivator((0.0, 1.0), breakpoints=breakpoints, slopes=slopes, jumps=jumps)

    def test_empty_constancy_interval(self):
        with pytest.raises(ConfigurationError, match="empty constancy interval"):
            Classification(constancy=[(0.5, 0.5)])

    def test_sum_of_no_derivators(self):
        with pytest.raises(ConfigurationError, match="at least one derivator"):
            sum_derivators([])

    @pytest.mark.parametrize("classification, window, message", [
        (Classification(), (1.0, 0.0), r"window must be a finite pair \(L, R\) with L < R"),
        (Classification(constancy=[(0.5, 1.5)]), (0.0, 1.0), "not inside the window"),
        (Classification(discontinuities=[1.0]), (0.0, 1.0), "jump points must lie strictly inside the window"),
    ])
    def test_from_classification_refuses_what_the_window_cannot_hold(
            self, classification, window, message):
        with pytest.raises(ConfigurationError, match=message):
            from_classification(classification, window)


def _brute_pieces(g, cuts):
    """``g._pieces(cuts)`` by a scan: every cut and every breakpoint strictly
    between the least and the greatest cut, each piece's slope that of the
    last segment starting at or before its left end."""
    lo, hi = min(cuts), max(cuts)
    bp, slopes = g.breakpoints.tolist(), g.slopes.tolist()
    edges = sorted({*map(float, cuts), *(b for b in bp if lo < b < hi)})
    return edges, [slopes[max(k for k in range(len(slopes)) if bp[k] <= a)] for a in edges[:-1]]


class TestPieces:
    def check(self, g, cuts):
        edges, slopes = g._pieces(np.array(cuts, dtype=float))
        want_edges, want_slopes = _brute_pieces(g, cuts)
        assert edges.tolist() == want_edges
        assert slopes.tolist() == want_slopes
        return slopes

    def test_random_cuts_match_a_scan(self, rng):
        flat = 0
        for _ in range(300):
            g = random_derivator(rng, max_segments=12, max_jumps=4)
            left, right = g.window
            pool = np.concatenate((g.breakpoints, g.jump_points, rng.uniform(left, right, 4)))
            cuts = np.sort(rng.choice(pool, int(rng.integers(2, 7)))).tolist()  # maybe repeated
            if cuts[0] < cuts[-1]:
                flat += int(np.count_nonzero(self.check(g, cuts) == 0.0))
        assert flat > 0  # flat segments were cut

    def test_cuts_on_breakpoints_and_at_the_window_ends(self, rng):
        for _ in range(100):
            g = random_derivator(rng, max_segments=12, max_jumps=4)
            bp = g.breakpoints
            self.check(g, [bp[0], bp[-1]])
            self.check(g, bp.tolist())
            if bp.size > 2:
                self.check(g, [bp[1], bp[-1]])
                self.check(g, [bp[0], bp[1], bp[-2]])

    def test_cuts_at_jumps_to_the_window_end(self, rng):
        for _ in range(100):
            g = random_derivator(rng, max_segments=12, max_jumps=4)
            a = float(rng.choice(np.concatenate((g.breakpoints[:-1], g.jump_points))))
            jp = g.jump_points[g.jump_points >= a]  # may start at a
            self.check(g, [a, *jp.tolist(), g.window[1]])

    def test_a_cut_inside_one_segment_is_one_piece(self, rng):
        for _ in range(100):
            g = random_derivator(rng, max_segments=12, max_jumps=4)
            k = int(rng.integers(g.slopes.size))
            a, b = np.sort(rng.uniform(g.breakpoints[k], g.breakpoints[k + 1], 2))
            if a < b:
                edges, slopes = g._pieces((a, b))
                assert edges.tolist() == [a, b] and slopes.tolist() == [g.slopes[k]]
                self.check(g, [a, b])


class TestSum:
    def test_singleton_sum_is_evaluation_equal(self, rng):
        g = random_derivator(rng)
        s = sum_derivators([g])
        for t in np.linspace(*g.window, 17):
            assert s.eval(t) == pytest.approx(g.eval(t), abs=1e-14)

    def test_identity_plus_pure_jump(self):
        g1 = Derivator.identity((0.0, 2.0))
        g2 = Derivator((0.0, 2.0), slopes=[0.0], jumps=[(1.0, 1.0)])
        s = sum_derivators([g1, g2])
        assert s.eval(2.0) == 3.0
        assert s.jump(1.0) == 1.0

    def test_three_identities(self):
        g = Derivator.identity((0.0, 1.0))
        s = sum_derivators([g, g, g])
        for t in np.linspace(0, 1, 9):
            assert s.eval(t) == pytest.approx(3 * t, abs=1e-15)

    def test_shared_jump_points_merge(self):
        g1 = Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 0.5)])
        g2 = Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 0.25), (1.5, 1.0)])
        s = g1 + g2
        assert s.jump(1.0) == 0.75
        assert s.jump(1.5) == 1.0
        assert s.jump_points.size == 2

    def test_window_mismatch(self):
        with pytest.raises(ConfigurationError):
            sum_derivators([Derivator.identity((0, 1)), Derivator.identity((0, 2))])

    def test_only_a_derivator_adds(self):
        with pytest.raises(TypeError):
            idjump() + 1

    def test_additivity_randomized(self, rng):
        for _ in range(200):
            gs = [random_derivator(rng) for _ in range(int(rng.integers(1, 4)))]
            s = sum_derivators(gs)
            t = float(rng.uniform(0, 1))
            parts = [g.eval(t) for g in gs]
            lhs = s.eval(t)
            rhs = sum(parts)
            assert abs(lhs - rhs) <= 1e-12 * (1 + sum(abs(p) for p in parts))

    def test_monotonicity_randomized(self, rng):
        for _ in range(1000):
            g = random_derivator(rng)
            s, t = np.sort(rng.uniform(*g.window, size=2))
            assert g.eval(s) <= g.eval(t) + 1e-15

    def test_jump_bookkeeping_exact(self, rng):
        # bit-exact, no tolerances: the stored jump is returned verbatim and
        # the right limit is exactly eval + jump
        for _ in range(50):
            g = random_derivator(rng)
            for d, delta in g.jumps:
                assert g.jump(d) == delta
                assert g.eval_right(d) == g.eval(d) + delta
            for b in g.breakpoints[:-1]:
                if b not in g.jump_points:
                    assert g.jump(b) == 0.0
                    assert g.eval_right(b) == g.eval(b)


class TestClassification:
    def test_identity_classifies_empty(self):
        c = classify(Derivator.identity((0.0, 1.0)))
        assert c == Classification()

    def test_round_trip_example(self):
        c = Classification(constancy=[(0.0, 1.0)], discontinuities=[1.5])
        g = from_classification(c, window=(-1.0, 2.0))
        assert classify(g) == c

    def test_zero_slope_with_interior_jump_splits(self):
        g = Derivator((-1.0, 3.0), breakpoints=[-1, 0, 2, 3],
                      slopes=[1.0, 0.0, 1.0], jumps=[(1.0, 0.5)])
        c = classify(g)
        assert c.sorted_constancy() == ((0.0, 1.0), (1.0, 2.0))
        assert set(c.discontinuities) == {1.0}
        # brute-force constancy scan: g flat on a neighborhood <=> in some interval
        for t in np.linspace(-0.9, 2.9, 301):
            eps = 1e-4
            flat = g.eval(min(t + eps, 3.0)) == g.eval(max(t - eps, -1.0))
            inside = any(a < t < b for a, b in c.constancy)
            if abs(t - 0.0) > 2 * eps and abs(t - 2.0) > 2 * eps and abs(t - 1.0) > 2 * eps:
                assert flat == inside

    def test_adjacent_flat_segments_merge(self):
        g = Derivator((0.0, 3.0), breakpoints=[0, 1, 2, 3], slopes=[0.0, 0.0, 1.0])
        c = classify(g)
        assert c.sorted_constancy() == ((0.0, 2.0),)

    def test_classification_is_computed_once(self, rng):
        g = random_derivator(rng)
        assert classify(g) is classify(g)

    def test_classification_validation(self):
        with pytest.raises(ConfigurationError):
            Classification(constancy=[(0, 1), (0.5, 2)])
        with pytest.raises(ConfigurationError):
            Classification(constancy=[(0, 1)], discontinuities=[0.5])
        with pytest.raises(ConfigurationError):
            Classification(discontinuities=[0.5, 0.5])

    def test_equality_ignores_the_order_and_so_does_the_hash(self):
        a = Classification(constancy=[(0, 1), (2, 3)], discontinuities=[1.5, 4.0])
        b = Classification(constancy=[(2, 3), (0, 1)], discontinuities=[4.0, 1.5])
        assert a == b and hash(a) == hash(b)
        assert a != (a.constancy, a.discontinuities)
        assert repr(b) == "Classification(constancy=[(2.0, 3.0), (0.0, 1.0)], discontinuities=[4.0, 1.5])"

    def test_touching_intervals_allowed(self):
        c = Classification(constancy=[(0, 1), (1, 2)], discontinuities=[1.0])
        assert len(c.constancy) == 2

    def test_a_discontinuity_inside_names_the_first_one_and_its_interval(self):
        with pytest.raises(ConfigurationError, match=(
                r"discontinuity 2\.5 lies inside constancy interval \(2\.0, 3\.0\)")):
            Classification(constancy=[(2, 3), (0, 1)], discontinuities=[1.0, 2.5, 0.5])

    def test_holding_names_the_interval_a_scan_finds(self, rng):
        for _ in range(200):
            c = random_classification(rng)
            ivals = c.sorted_constancy()
            ts = np.concatenate((np.ravel(ivals), rng.uniform(-0.1, 1.1, 50),
                                 c.discontinuities, [-np.inf, np.inf]))
            expected = [next((k for k, (a, b) in enumerate(ivals) if a < t < b), -1)
                        for t in ts]
            assert c._holding(ts).tolist() == expected

    def test_classify_matches_a_scan_of_the_segments(self, rng):
        # on a grid of eighths, adjacent flat segments and jumps on breakpoints are common
        for _ in range(1000):
            bp = np.unique(np.concatenate(([0.0, 1.0], rng.integers(1, 8, 6) / 8)))
            slopes = rng.uniform(0.5, 2.0, bp.size - 1)
            slopes[rng.random(bp.size - 1) < 0.6] = 0.0
            pts = np.unique(rng.integers(1, 16, int(rng.integers(0, 5))) / 16)
            g = Derivator((0.0, 1.0), breakpoints=bp, slopes=slopes,
                          jumps=zip(pts, np.ones(pts.size)))
            c = classify(g)
            assert c.constancy == _scan_constancy(g)
            assert c.discontinuities == tuple(pts.tolist())


def _scan_constancy(g):
    """The constancy intervals by a scan over the segments: each run of zero
    slope, cut at the jumps strictly inside it."""
    intervals, k, m = [], 0, g.slopes.size
    while k < m:
        if g.slopes[k] != 0.0:
            k += 1
            continue
        start = k
        while k < m and g.slopes[k] == 0.0:
            k += 1
        a, b = g.breakpoints[start], g.breakpoints[k]
        ends = [a, *(d for d in g.jump_points if a < d < b), b]
        intervals += zip(ends[:-1], ends[1:])
    return tuple((float(a), float(b)) for a, b in intervals)


class TestFromClassification:
    def test_paper_style_harmonic_jumps(self):
        # g(t) = t + sum of 2^-n over the enumerated points 1/n below t
        points = [1.0 / n for n in range(1, 9)]
        c = Classification(discontinuities=points)
        g = from_classification(c, window=(0.0, 2.0))
        for t in [0.3, 0.75, 1.2, 2.0]:
            expected = t + sum(2.0 ** -(n + 1) for n, d in enumerate(points) if d < t)
            assert g.eval(t) == pytest.approx(expected, rel=1e-15)
        assert g.jump(0.5) == 0.25  # second enumerated point gets weight 2^-2

    def test_constancy_only(self):
        c = Classification(constancy=[(0.0, 1.0)])
        g = from_classification(c, window=(-1.0, 2.0))
        assert g.eval(1.0) - g.eval(0.0) == 0.0
        assert g.eval(0.0) - g.eval(-1.0) == pytest.approx(1.0)
        assert g.eval(2.0) - g.eval(1.0) == pytest.approx(1.0)

    def test_unit_weight_jump(self):
        c = Classification(discontinuities=[0.5])
        g = from_classification(c, window=(0.0, 1.0), weights=[1.0])
        assert g.eval(1.0) - g.eval(0.0) == pytest.approx(2.0)

    def test_signed_anchor_formula(self):
        # with 0 in the window, g(t) equals the signed Lebesgue measure of
        # the non-constant part of [0, t]
        c = Classification(constancy=[(-0.5, -0.25)])
        g = from_classification(c, window=(-1.0, 1.0))
        assert g.eval(0.0) == pytest.approx(0.0, abs=1e-15)
        assert g.eval(-1.0) == pytest.approx(-0.75)
        assert g.eval(1.0) == pytest.approx(1.0)

    def test_a_window_without_zero_starts_at_zero(self):
        c = Classification(constancy=[(1.5, 2.0)], discontinuities=[2.5])
        g = from_classification(c, window=(1.0, 3.0))
        assert g.anchor == 0.0 and g.eval(1.0) == 0.0
        assert g.eval(3.0) == pytest.approx(1.5 + 0.5)  # the non-constant length and the jump

    def test_weight_validation(self):
        c = Classification(discontinuities=[0.5])
        with pytest.raises(ConfigurationError):
            from_classification(c, window=(0, 1), weights=[1.0, 2.0])
        for weight in (-1.0, 0.0, math.nan, math.inf, "0.5", True):  # the last two used to be read by float()
            with pytest.raises(ConfigurationError, match="jump weight"):
                from_classification(c, window=(0, 1), weights=[weight])

    def test_round_trip_randomized(self, rng):
        for _ in range(100):
            c = random_classification(rng)
            g = from_classification(c, window=(0.0, 1.0))
            assert classify(g) == c

    def test_independent_copies_classify_equal(self, rng):
        c = random_classification(rng)
        g1 = from_classification(c, window=(0.0, 1.0))
        g2 = from_classification(c, window=(0.0, 1.0))
        assert classify(g1) == classify(g2)


class TestSerialization:
    def test_dict_round_trip(self, rng):
        g = random_derivator(rng)
        g2 = Derivator.from_dict(g.to_dict())
        ts = np.linspace(*g.window, 23)
        assert np.array_equal(g.eval(ts), g2.eval(ts))
        assert g2.jumps == g.jumps

    def test_repr(self):
        assert repr(idjump()) == "Derivator(window=(0.0, 2.0), segments=1, jumps=1, anchor=0.0)"
