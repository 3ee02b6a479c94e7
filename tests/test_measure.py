"""Interval measures, disjointification, and the LS integral.

Union preservation is checked by brute-force membership on fine grids; the
measure-sum identity runs to 1e-10 relative and integral additivity over sum
derivators to 1e-8, matching the package-wide contracts.
"""

import math

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
from stieltjes.measure import (
    _SCALAR_BLOCK,
    _atom_terms,
    _check_interval,
    _sample_finite,
    _slope_sums,
)

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
        # a flat segment takes no samples, so f may be undefined there
        nan_when_flat = lambda t: float("nan") if 0.2 < t < 0.8 else 1.0
        assert integrate(g, nan_when_flat, 0.0, 1.0) == pytest.approx(0.4, rel=1e-14)

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


def _reference_integrate(g, f, a, b, quad=None):
    """The earlier ``integrate``: its own atom and segment searches and two running sums."""
    a, b = float(a), float(b)
    _check_interval(g, a, b)
    quad = quad or QuadratureConfig()

    lo, hi = np.searchsorted(g.jump_points, (a, b))
    atomic = 0.0
    for term in _atom_terms(f, g.jump_points[lo:hi], g.jump_sizes[lo:hi]):
        atomic += term  # in point order, as a running sum

    # only the slope segments [bp[k], bp[k+1]) with bp[k] < b and bp[k+1] > a
    # meet [a, b)
    bp = g.breakpoints
    k = np.arange(np.searchsorted(bp, a, side="right") - 1, np.searchsorted(bp, b, side="left"))
    smooth = 0.0
    for part in _slope_sums(g, f, np.maximum(bp[k], a), np.minimum(bp[k + 1], b), quad):
        smooth += part  # in segment order, as a running sum

    return smooth + atomic


class _Wavy:
    """A smooth integrand with a numpy ``batch``, so that many rules stay cheap."""

    def __init__(self, rng):
        self.a, self.b, self.w = rng.normal(), rng.normal(), rng.uniform(1.0, 20.0)

    def __call__(self, t):
        return self.a + self.b * np.sin(self.w * t) - t * t

    def batch(self, ts):
        return self.a + self.b * np.sin(self.w * ts) - ts * ts


class _Counting:
    """A plain integrand that counts its samples."""

    def __init__(self):
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return 1.0 + t


class TestOneKernel:
    RULES = [None, QuadratureConfig(order=8, panels=8), QuadratureConfig(order=16, panels=4)]

    def test_integrate_has_the_bits_of_the_reference(self, rng):
        for _ in range(200):
            g = random_derivator(rng, max_segments=30, max_jumps=10)
            f = _Wavy(rng)
            left, right = g.window
            ends = np.unique(np.concatenate((
                g.breakpoints, g.jump_points, rng.uniform(left, right, 3))))
            pairs = [(left, right), (left, rng.choice(ends[1:]))]
            if g.jump_points.size:  # an end on an atom, the other on a breakpoint
                d, p = rng.choice(g.jump_points), rng.choice(g.breakpoints)
                if d != p:
                    pairs.append((min(d, p), max(d, p)))
            pairs += [tuple(np.sort(rng.choice(ends, 2, replace=False))) for _ in range(2)]
            for a, b in pairs:
                for quad in self.RULES:
                    got = float(integrate(g, f, a, b, quad))
                    want = float(_reference_integrate(g, f, a, b, quad))
                    assert got.hex() == want.hex(), (a, b, quad)

    @staticmethod
    def hundred_jumps():
        pts = np.linspace(0.0, 1.0, 102)[1:-1]
        return Derivator.identity((0.0, 1.0)).with_jumps([(d, 0.01) for d in pts])

    def test_integrate_samples_one_rule_per_segment_and_one_per_atom(self):
        g = self.hundred_jumps()
        for quad in self.RULES:
            f = _Counting()
            integrate(g, f, 0.0, 1.0, quad)
            quad = quad or QuadratureConfig()
            assert f.calls == quad.order * quad.panels + 100

    @pytest.mark.parametrize("cuts", [(), (0.3, 0.55)], ids=["one-segment", "three-segments"])
    @pytest.mark.parametrize("on_atom", [False, True], ids=["end-between-atoms", "end-on-an-atom"])
    def test_integrate_cuts_at_breakpoints_not_at_atoms(self, cuts, on_atom):
        g = self.hundred_jumps()
        g = Derivator(g.window, breakpoints=(0.0, *cuts, 1.0), slopes=[1.0] * (len(cuts) + 1),
                      jumps=zip(g.jump_points, g.jump_sizes))
        quad = QuadratureConfig(order=8, panels=8)
        atoms = g.jump_points
        for b in (atoms[70] if on_atom else 0.7, 1.0):
            pieces = 1 + sum(c < b for c in cuts)
            before = atoms[atoms < b]  # the atom at b is left out
            f = _Counting()
            got = integrate(g, f, 0.0, b, quad)
            assert f.calls == pieces * quad.order * quad.panels + before.size
            want = b + b * b / 2.0 + float(np.sum((1.0 + before) * 0.01))
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def _reference_sample(f, ts, fail, xs=None):
    """The scalar loop of ``_sample_finite`` as it read when it iterated the array."""
    vals = np.empty(len(ts))
    for q, t in enumerate(ts):
        v = float(f(t) if xs is None else f(float(t), tuple(xs[q].tolist())))
        if not math.isfinite(v):
            raise fail(v, q)
        vals[q] = v
    return vals


class _Recording:
    """A plain f of ``t`` or ``(t, x)`` that records its arguments; NaN at call ``bad``."""

    def __init__(self, bad=None):
        self.args, self.bad = [], bad

    def __call__(self, t, x=None):
        self.args.append((t, x))
        if len(self.args) - 1 == self.bad:
            return math.nan
        v = math.sin(0.5 * t) + t / 3.0 + math.sqrt(abs(t))
        return v if x is None else v + sum(x)


def _edge_ts(rng, n):
    ts = rng.uniform(-2.0, 2.0, n)
    ts[rng.choice(n, 3, replace=False)] = [-0.0, 5e-324, 1e308]
    return ts


def _refuse(v, q):
    return IntegrandError(f"f returned {v} at sample {q}", point=q)


B = _SCALAR_BLOCK


class TestScalarSampling:
    SIZES = [0, 1, B - 1, B, B + 1, 3 * B + 17]

    @pytest.mark.parametrize("n", SIZES)
    def test_plain_f_gets_python_floats_and_the_bits_of_the_reference(self, rng, n):
        ts = _edge_ts(rng, max(n, 3))[:n]
        f = _Recording()
        got = _sample_finite(f, ts, _refuse)
        assert [t for t, _ in f.args] == ts.tolist()
        assert all(type(t) is float for t, _ in f.args)
        want = _reference_sample(_Recording(), ts, _refuse)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_rows_reach_f_as_tuples_of_floats(self, rng, n):
        ts = _edge_ts(rng, max(n, 3))[:n]
        xs = rng.uniform(-1.0, 1.0, (n, 2))
        want = _reference_sample(_Recording(), ts, _refuse, xs)
        for rows in (xs, xs.tolist()):
            f = _Recording()
            got = _sample_finite(f, ts, _refuse, xs=rows)
            assert got.tobytes() == want.tobytes()
            assert [x for _, x in f.args] == [tuple(row) for row in xs.tolist()]
            assert all(type(t) is float for t, _ in f.args)
            assert all(type(x) is tuple and all(type(c) is float for c in x)
                       for _, x in f.args)

    def test_integer_rows_become_floats(self):
        f = _Recording()
        _sample_finite(f, np.array([0.0, 1.0]), _refuse, xs=[[1, 2], [3, 4]])
        assert [x for _, x in f.args] == [(1.0, 2.0), (3.0, 4.0)]
        assert all(type(c) is float for _, x in f.args for c in x)

    @pytest.mark.parametrize("with_rows", [False, True], ids=["t", "t-and-x"])
    @pytest.mark.parametrize("q", [0, B - 1, B, B + 1, 3 * B + 5])
    def test_first_non_finite_sample_raises_at_its_index_and_stops(self, rng, q, with_rows):
        n = 3 * B + 17  # q = 3B + 5 lies in the last, partial block
        ts = rng.uniform(0.0, 1.0, n)
        xs = rng.uniform(-1.0, 1.0, (n, 2)) if with_rows else None
        seen = []

        def fail(v, k):
            seen.append((v, k, ts[k]))
            return IntegrandError(f"f returned {v} at t={ts[k]}", point=ts[k])

        f = _Recording(bad=q)
        with pytest.raises(IntegrandError) as info:
            _sample_finite(f, ts, fail, xs=xs)
        assert len(f.args) == q + 1
        [(v, k, t)] = seen
        assert math.isnan(v) and k == q and t == ts[q]
        assert info.value.point == ts[q]

    def test_f_computes_in_python_float_arithmetic(self):
        # a numpy scalar would give inf here, and fail(inf, 1)
        calls = []
        f = lambda t: calls.append(t) or 1.0 / (t - 0.5)
        with pytest.raises(ZeroDivisionError):
            _sample_finite(f, np.array([0.25, 0.5, 0.75]), _refuse)
        assert calls == [0.25, 0.5]
