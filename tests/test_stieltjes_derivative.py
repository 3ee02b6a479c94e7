"""Stieltjes derivatives: jump quotients, continuity points, FTC round trip.

Continuity-point estimates carry tolerance 1e-6..1e-5 (dyadic ladder with
Richardson); jump quotients against indefinite integrals are exact to
machine precision because the atom increment is computed symbolically.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from stieltjes import (
    Classification,
    Derivator,
    DerivativeUndefinedError,
    IntegrandError,
    NoDerivativeError,
    RightLimitError,
    StieltjesError,
    WindowDomainError,
    classify,
    from_classification,
)
from stieltjes.derivative import (
    _FLAT_EPS,
    _H_STEPS,
    _TOL_MATCH,
    _extrapolate,
    check_ftc,
    indefinite_integral,
    stieltjes_derivative,
)
from stieltjes.expr import ExprFunction, parse
from stieltjes.measure import QuadratureConfig, _sample_finite
from stieltjes.topology import check_g_continuity_sampled

from conftest import random_derivator, random_smooth_function


def idjump():
    return Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 1.0)])


def _closed_form(g, p, P, a, ts):
    """The integral of p over [a, t) against dg for each t of ``ts``, from an
    antiderivative P of p: slope-weighted differences of P plus the atoms."""
    bp, slopes = g.breakpoints, g.slopes
    at_bp = np.concatenate(([0.0], np.cumsum(slopes * np.diff(P(bp)))))
    atoms = np.concatenate(([0.0], np.cumsum(p(g.jump_points) * g.jump_sizes)))

    def from_left(ts):
        k = np.minimum(np.searchsorted(bp, ts, side="right") - 1, slopes.size - 1)
        return (at_bp[k] + slopes[k] * (P(ts) - P(bp[k]))
                + atoms[np.searchsorted(g.jump_points, ts, side="left")])

    return from_left(ts) - from_left(np.array([a]))


# the 16-node, 4-panel rule that integrate takes per interval in the
# comparisons with a chain of integrate calls
_GL16 = QuadratureConfig(order=16, panels=4)

# integrands with a kink, a step and a cusp at _C, each with an antiderivative
_C = 0.3173
_SINGULAR = {
    "kink": (lambda t: np.abs(t - _C) + np.sin(t),
             lambda t: (t - _C) * np.abs(t - _C) / 2.0 - np.cos(t)),
    "step": (lambda t: np.where(t >= _C, 1.0, 0.0),
             lambda t: np.maximum(t - _C, 0.0)),
    "cusp": (lambda t: np.sqrt(np.abs(t - _C)),
             lambda t: np.sign(t - _C) * np.abs(t - _C) ** 1.5 * (2.0 / 3.0)),
}


def _segments_derivator(rng, m=200, n_jumps=20):
    """m slope segments on a regular grid of [0, 1], 30 % of them flat, and
    n_jumps atoms: the shape of the benchmark's ftc-segments derivator."""
    slopes = rng.uniform(0.5, 2.0, m)
    slopes[rng.choice(m, size=round(0.3 * m), replace=False)] = 0.0
    jumps = zip(np.sort(rng.uniform(0.02, 0.98, n_jumps)), rng.uniform(0.02, 0.2, n_jumps))
    return Derivator((0.0, 1.0), breakpoints=np.arange(m + 1) / m, slopes=slopes, jumps=jumps)


class TestDerivative:
    def test_derivator_derivative_of_itself_is_one(self, rng):
        for _ in range(10):
            g = random_derivator(rng, allow_flat=False)
            t = float(rng.uniform(0.05, 0.95))
            assert stieltjes_derivative(g.eval, g, t) == pytest.approx(1.0, abs=1e-6)

    def test_derivative_of_g_at_jump_is_one(self):
        g = idjump()
        assert stieltjes_derivative(g.eval, g, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_jump_quotient_by_hand(self):
        # f jumps from 2 to 5 across t=1 while g jumps by 1
        g = idjump()
        f = lambda t: 2.0 if t <= 1.0 else 5.0
        assert stieltjes_derivative(f, g, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_classical_derivative(self):
        g = Derivator.identity((0.0, 2.0))
        assert stieltjes_derivative(lambda t: t * t, g, 1.0) == pytest.approx(2.0, abs=1e-6)

    def test_constancy_point_is_an_error(self):
        g = from_classification(Classification(constancy=[(0.0, 1.0)]), window=(-1.0, 2.0))
        with pytest.raises(DerivativeUndefinedError):
            stieltjes_derivative(lambda t: t, g, 0.5)

    def test_mismatched_one_sided_limits_raise_with_estimates(self):
        g = Derivator.identity((-1.0, 1.0))
        f = lambda t: abs(t)  # kink at 0: slopes -1 and +1
        with pytest.raises(NoDerivativeError) as exc:
            stieltjes_derivative(f, g, 0.0)
        assert exc.value.left == pytest.approx(-1.0, abs=1e-6)
        assert exc.value.right == pytest.approx(1.0, abs=1e-6)

    def test_one_sided_flat_uses_the_active_side(self):
        # slope 0 on [0,1), slope 1 on [1,2): at t=1 only the right side moves
        g = Derivator((0.0, 2.0), breakpoints=[0, 1, 2], slopes=[0.0, 1.0])
        got = stieltjes_derivative(lambda t: 3.0 * t, g, 1.0)
        assert got == pytest.approx(3.0, abs=1e-6)

    def test_non_finite_sample_raises(self):
        f = lambda t: t if t <= 0.5 else float("nan")
        with pytest.raises(IntegrandError) as exc:
            stieltjes_derivative(f, Derivator((0.0, 1.0)), 0.5)
        assert exc.value.point > 0.5

    def test_non_finite_value_at_a_jump_point_raises(self):
        # the jump quotient (f(t+) - f(t)) / delta used to return nan
        f = lambda t: math.nan if t == 1.0 else t
        with pytest.raises(IntegrandError, match=r"at t=1\.0") as exc:
            stieltjes_derivative(f, idjump(), 1.0)
        assert exc.value.point == 1.0

    def test_batched_f_gives_the_scalar_value(self, rng):
        # F offers batch, the lambda does not: the ladder must not notice
        for _ in range(5):
            g = random_derivator(rng, max_segments=30, max_jumps=4)
            F = indefinite_integral(random_smooth_function(rng), g, 0.0)
            ts = np.concatenate([g.breakpoints[:-1], rng.uniform(0.0, 1.0, size=10)])
            for t in ts:
                results = []
                for f in (F, lambda s: F(s)):
                    try:
                        results.append(stieltjes_derivative(f, g, t))
                    except (DerivativeUndefinedError, NoDerivativeError) as exc:
                        results.append(type(exc))
                assert results[0] == results[1]

    def test_linearity(self, rng):
        g = random_derivator(rng, allow_flat=False)
        f1 = random_smooth_function(rng)
        f2 = random_smooth_function(rng)
        t = 0.4
        a, b = 2.0, -3.0
        combo = stieltjes_derivative(lambda s: a * f1(s) + b * f2(s), g, t)
        parts = a * stieltjes_derivative(f1, g, t) + b * stieltjes_derivative(f2, g, t)
        assert combo == pytest.approx(parts, abs=1e-5)

    @pytest.mark.parametrize("t", [-0.5, 2.0, math.nan])
    def test_a_derivative_outside_the_window(self, t):
        with pytest.raises(WindowDomainError, match=rf"t={t} outside \[0.0, 2.0\)"):
            stieltjes_derivative(lambda s: s, idjump(), t)


class TestRightLimit:
    """The three refusals of the right-limit estimate at a jump d of a plain f."""

    @staticmethod
    def jump_at(d):
        return Derivator.identity((0.0, 1.0)).with_jumps([(d, 1.0)])

    def test_no_room_right_of_the_jump(self):
        d = 1.0 - 2.0 ** -19  # only the steps 2^-19 and 2^-20 fit
        with pytest.raises(RightLimitError, match="not enough room"):
            stieltjes_derivative(lambda t: t, self.jump_at(d), d)

    def test_non_finite_samples_right_of_the_jump(self):
        f = lambda t: math.nan if t > 0.5 else t
        with pytest.raises(RightLimitError, match="non-finite samples"):
            stieltjes_derivative(f, self.jump_at(0.5), 0.5)

    def test_a_ladder_of_plus_and_minus_one_does_not_converge(self):
        # cos(pi * log2(2^-k)) = (-1)^k at every step of the ladder
        f = lambda t: math.cos(math.pi * math.log2(t - 0.5)) if t > 0.5 else 0.0
        with pytest.raises(RightLimitError, match="do not converge"):
            stieltjes_derivative(f, self.jump_at(0.5), 0.5)

    @pytest.mark.parametrize("right, at", [
        (lambda h: math.sin(1.0 / h), 0.0),  # no right limit
        (lambda h: 2.0 + math.sqrt(h), 1.0),  # f(0.5+) = 2, but not a series in h
        (lambda h: h ** 0.25, 0.0),  # f(0.5+) = 0, as slowly
    ], ids=["sin-of-reciprocal", "two-plus-sqrt", "fourth-root"])
    def test_a_ladder_that_does_not_pin_the_limit_down_raises(self, right, at):
        f = lambda t: right(t - 0.5) if t > 0.5 else at
        with pytest.raises(RightLimitError, match="do not converge"):
            stieltjes_derivative(f, self.jump_at(0.5), 0.5)

    def test_a_smooth_f_with_a_jump_keeps_its_derivative(self):
        # f(0.5+) - f(0.5) = 1 over the unit jump of g
        f = lambda t: math.cos(t) + (t > 0.5)
        assert abs(stieltjes_derivative(f, self.jump_at(0.5), 0.5) - 1.0) <= 1e-12


class TestIndefiniteIntegral:
    def test_constant_integrand_recovers_g(self):
        g = idjump()
        F = indefinite_integral(lambda t: 1.0, g, 0.0)
        for t in [0.0, 0.5, 1.0, 1.5, 2.0]:
            assert F(t) == pytest.approx(g.eval(t) - g.eval(0.0), abs=1e-12)

    def test_zero_integrand(self):
        F = indefinite_integral(lambda t: 0.0, idjump(), 0.0)
        assert F(1.7) == 0.0

    def test_hand_values_with_atom(self):
        F = indefinite_integral(lambda t: 1.0, idjump(), 0.0)
        assert F(1.0) == pytest.approx(1.0, abs=1e-12)
        assert F(1.5) == pytest.approx(2.5, abs=1e-12)

    def test_starts_at_zero_and_right_limit(self):
        g = idjump()
        f = lambda t: math.sin(t)
        F = indefinite_integral(f, g, 0.0)
        assert F(0.0) == 0.0
        assert F.right_limit(1.0) == pytest.approx(F(1.0) + math.sin(1.0), rel=1e-14)

    def test_matches_direct_integrate(self, rng):
        from stieltjes import integrate

        g = random_derivator(rng)
        f = random_smooth_function(rng)
        F = indefinite_integral(f, g, 0.0)
        for t in rng.uniform(0.1, 1.0, size=7):
            assert F(float(t)) == pytest.approx(integrate(g, f, 0.0, float(t)), abs=1e-10)


    def test_batch_equals_scalar_calls(self, rng):
        for _ in range(6):
            g = random_derivator(rng, max_segments=200, max_jumps=20)
            f = random_smooth_function(rng)
            a = float(rng.choice([0.0, g.breakpoints[len(g.breakpoints) // 2]]))
            F = indefinite_integral(f, g, a)
            right = g.window[1]
            special = np.concatenate([g.breakpoints, g.jump_points, [a, right],
                                      np.minimum(g.jump_points + 1e-9, right)])
            ts = np.concatenate([special, rng.uniform(a, right, size=500)])
            ts = ts[ts >= a]
            assert np.array_equal(F.batch(ts), [F(t) for t in ts])

    def test_scalar_lookup_at_the_fits_own_piece_ends(self, rng):
        # a kink and a square-root cusp make the fit halve, so its pieces end
        # at points that are neither breakpoints nor jumps of g
        f = lambda t: abs(t - 0.37) + math.sqrt(abs(t - 0.61))
        for g in [Derivator.identity((0.0, 1.0)).with_jumps([(0.3, 0.5), (0.61, 0.25)]),
                  _segments_derivator(rng)]:
            right = g.window[1]
            for a in [0.0, float(g.breakpoints[len(g.breakpoints) // 3])]:
                F = indefinite_integral(f, g, a)
                assert np.diff(F._lo).min() < 1e-6  # halved down to the cusp
                ends = np.concatenate((F._lo, [a, right]))
                ts = np.concatenate((ends, np.nextafter(ends, -np.inf),
                                     np.nextafter(ends, np.inf)))
                for t in ts[(ts >= a) & (ts <= right)].tolist():
                    assert F(t) == F.batch([t])[0], t
                for d in g.jump_points[g.jump_points >= a].tolist():
                    assert F.right_increment(d) == f(d) * g.jump(d), d
                    assert F.right_increment(np.nextafter(d, -np.inf)) == 0.0
                    assert F.right_increment(np.nextafter(d, np.inf)) == 0.0

    def test_table_equals_a_chain_of_integrate_calls(self, rng):
        from stieltjes import integrate

        for _ in range(4):
            g = random_derivator(rng, max_segments=200, max_jumps=20)
            f = random_smooth_function(rng)
            a = float(rng.choice([0.0, g.breakpoints[len(g.breakpoints) // 3]]))
            F = indefinite_integral(f, g, a)
            nodes = np.unique(np.concatenate(
                ([a], g.breakpoints[g.breakpoints > a], g.jump_points[g.jump_points >= a])))
            cum = [0.0]
            for lo, hi in zip(nodes[:-1], nodes[1:]):
                cum.append(cum[-1] + integrate(g, f, lo, hi, _GL16))
            # the table sums the fit's exact piece integrals, so it agrees
            # with the chain to rounding, not bit for bit
            cum = np.array(cum)
            assert np.all(np.abs([F(t) for t in nodes] - cum) <= 1e-14 * (1.0 + np.abs(cum)))

    def test_the_table_on_a_segments_derivator_matches_its_closed_form(self, rng):
        p = lambda t: np.sin(3.0 * t) + t * t
        P = lambda t: -np.cos(3.0 * t) / 3.0 + t ** 3 / 3.0
        for _ in range(3):
            g = _segments_derivator(rng)
            F = indefinite_integral(lambda t: math.sin(3.0 * t) + t * t, g, 0.0)
            nodes = np.union1d(g.breakpoints, g.jump_points)
            exact = _closed_form(g, p, P, 0.0, nodes)
            assert np.all(np.abs(F.batch(nodes) - exact) <= 1e-14 * (1.0 + np.abs(exact)))

    def test_no_integrand_calls_after_the_build(self, rng):
        for _ in range(4):
            g = random_derivator(rng, max_segments=50, max_jumps=6)
            smooth = random_smooth_function(rng)
            calls = []
            f = lambda t: calls.append(t) or smooth(t)
            F = indefinite_integral(f, g, 0.0)
            calls.clear()
            ts = rng.uniform(0.0, 1.0, 300)
            for t in np.concatenate((ts, g.breakpoints, g.jump_points)):
                F(t)
                F.right_limit(t)
                F.right_increment(t)
            F.batch(ts)
            check_g_continuity_sampled(F, g, [(0.5, 1e-3)])
            assert calls == []

    @pytest.mark.parametrize("degree", [0, 1, 7, 15])
    def test_polynomials_of_degree_below_the_fit_are_exact(self, rng, degree):
        # at random points and at every node, from the window's left end, a
        # breakpoint and a random start
        for g in [Derivator.identity((0.0, 1.0)).with_jumps([(0.3, 0.5)]),
                  random_derivator(rng, max_segments=200, max_jumps=20),
                  _segments_derivator(rng)]:
            p = np.polynomial.Chebyshev(rng.normal(size=degree + 1), domain=[0.0, 1.0])
            for a in [0.0, float(g.breakpoints[len(g.breakpoints) // 3]),
                      float(rng.uniform(0.0, 0.5))]:
                F = indefinite_integral(lambda t: float(p(t)), g, a)
                ts = np.concatenate((rng.uniform(a, 1.0, 200), [a], g.breakpoints, g.jump_points))
                ts = ts[ts >= a]
                exact = _closed_form(g, p, p.integ(), a, ts)
                got = F.batch(ts)
                assert np.all(np.abs(got - exact) <= 1e-14 * (1.0 + np.abs(exact)))

    def test_random_smooth_integrands_agree_with_integrate(self, rng):
        from stieltjes import integrate

        for _ in range(5):
            g = random_derivator(rng, max_segments=200, max_jumps=20)
            f = random_smooth_function(rng)
            F = indefinite_integral(f, g, 0.0)
            for t in rng.uniform(0.0, 1.0, 20).tolist():
                ref = integrate(g, f, 0.0, t, _GL16)
                assert abs(F(t) - ref) <= 1e-13 * (1.0 + abs(ref))

    @pytest.mark.parametrize("f", [
        lambda t: math.sin(30.0 * t) + math.exp(t),
        # even about the window's midpoint: every odd coefficient of the
        # first fit is 0, so the last one alone would pass the tail test
        lambda t: math.cos(30.0 * (t - 0.5)),
    ])
    def test_fast_integrands_on_one_long_segment(self, rng, f):
        from stieltjes import integrate

        g = Derivator.identity((0.0, 1.0))
        F = indefinite_integral(f, g, 0.0)
        for t in rng.uniform(0.0, 1.0, 30).tolist():
            ref = integrate(g, f, 0.0, t)
            assert abs(F(t) - ref) <= 1e-13 * (1.0 + abs(ref))

    def test_a_kink_matches_its_closed_form(self, rng):
        # the kink at 0.2517 lies inside the slope segment [0.25, 0.5), in its
        # first piece, next to the jump at 0.25
        g = Derivator((0.0, 1.0), breakpoints=[0.0, 0.25, 0.5, 1.0],
                      slopes=[1.0, 2.0, 0.5], jumps=[(0.25, 0.7)])
        p = lambda t: np.abs(t - 0.2517) + np.sin(t)
        P = lambda t: (t - 0.2517) * np.abs(t - 0.2517) / 2.0 - np.cos(t)
        calls = []
        F = indefinite_integral(lambda t: calls.append(t) or float(p(t)), g, 0.0)
        calls.clear()
        ts = np.concatenate((rng.uniform(0.0, 1.0, 200), np.linspace(0.24, 0.27, 31),
                             g.breakpoints))
        exact = _closed_form(g, p, P, 0.0, ts)
        got = F.batch(ts)
        assert np.all(np.abs(got - exact) <= 1e-14 * (1.0 + np.abs(exact)))
        assert np.array_equal(got, [F(t) for t in ts])
        assert calls == []

    @pytest.mark.parametrize("kind", sorted(_SINGULAR))
    @pytest.mark.parametrize("g", [
        Derivator.identity((0.0, 1.0)),
        Derivator((0.0, 1.0), breakpoints=[0.0, 0.25, 0.5, 1.0], slopes=[1.0, 2.0, 0.5],
                  jumps=[(0.25, 0.7), (0.6, 0.3)]),
        Derivator.identity((0.0, 1.0)).with_jumps([(0.1, 0.5), (_C, 0.2)]),
    ], ids=["identity", "slopes-and-atoms", "atom-at-the-singularity"])
    def test_a_singular_integrand_matches_its_closed_form(self, rng, kind, g):
        # bisection splits the singularity off: F is exact to rounding, the
        # build takes a bounded number of samples and F then takes none
        p, P = _SINGULAR[kind]
        calls = []
        F = indefinite_integral(lambda t: calls.append(t) or float(p(t)), g, 0.0)
        assert len(calls) <= 2000
        calls.clear()
        ts = np.concatenate((rng.uniform(0.0, 1.0, 300), _C + np.linspace(-1e-3, 1e-3, 101),
                             [_C, 1.0], g.breakpoints, g.jump_points))
        exact = _closed_form(g, p, P, 0.0, ts)
        got = F.batch(ts)
        assert np.all(np.abs(got - exact) <= 1e-14 * (1.0 + np.abs(exact)))
        assert np.array_equal(got, [F(t) for t in ts])
        for d, size in g.jumps:
            assert F.right_limit(d) == F(d) + float(p(d)) * size
            assert F.right_increment(d) == float(p(d)) * size
        assert calls == []

    def test_an_unresolvable_integrand_raises_at_build_within_the_budget(self):
        # sin(1/(t - c)) oscillates ever faster towards c: the halving would
        # go on without end; the piece budget stops it in seconds and a few MB
        f = lambda t: math.sin(1.0 / (t - _C)) if t != _C else 0.0
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(IntegrandError, match="does not resolve") as exc:
                indefinite_integral(f, Derivator.identity((0.0, 1.0)), 0.0)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(exc.value.point - _C) < 1e-3
        assert elapsed < 20.0
        assert peak < 32e6

    def test_an_integral_beyond_double_precision_raises_at_build(self):
        # every sample is finite, but F's table overflows
        with pytest.raises(IntegrandError, match="not finite"):
            indefinite_integral(lambda t: 1e308, Derivator((0.0, 4.0)), 0.0)

    def test_nan_on_a_subinterval_raises_at_build(self):
        f = lambda t: math.nan if 0.41 < t < 0.43 else t
        with pytest.raises(IntegrandError) as exc:
            indefinite_integral(f, idjump(), 0.0)
        assert 0.41 < exc.value.point < 0.43

    @pytest.mark.parametrize("g, lo, hi", [
        (Derivator.identity((0.0, 2.0)), 0.0, 2.0),
        (Derivator((0.0, 2.0), breakpoints=[0.0, 0.7, 0.73, 2.0], slopes=[0.0, 1.5, 0.0]),
         0.7, 0.73),
    ])
    def test_a_nan_patch_wider_than_the_sample_gap_raises_at_build(self, rng, g, lo, hi):
        # no two neighbouring build samples in a sloped interval of width w
        # lie more than (pi / 32) * min(w, W / 16) apart, W the window's width
        width = 1.01 * math.pi / 32.0 * min(hi - lo, (g.window[1] - g.window[0]) / 16.0)
        for c in np.concatenate((np.linspace(lo, hi - width, 17),
                                 rng.uniform(lo, hi - width, 8))).tolist():
            f = lambda t, c=c: math.nan if c < t < c + width else math.cos(5.0 * t)
            with pytest.raises(IntegrandError) as exc:
                indefinite_integral(f, g, 0.0)
            assert c < exc.value.point < c + width

    def test_a_build_samples_f_once_per_fit_node_and_atom(self, rng):
        # 16 Chebyshev samples per sloped interval, 32 per halving (two
        # halves), one per atom; the node table takes no samples of its own
        g = _segments_derivator(rng)
        calls = []
        F = indefinite_integral(lambda t: calls.append(t) or math.sin(3.0 * t) + t * t, g, 0.0)
        nodes = np.union1d(g.breakpoints, g.jump_points)
        n_sloped = int(np.count_nonzero(g.eval(nodes[1:]) > g.eval_right(nodes[:-1])))
        halvings = F._lo.size - (nodes.size - 1)
        assert len(calls) <= 16 * n_sloped + 32 * halvings + g.jump_points.size

    @pytest.mark.parametrize("a", [-0.5, 2.0, 3.0])
    def test_a_start_outside_the_window(self, a):
        with pytest.raises(WindowDomainError, match=rf"a={a} outside \[0.0, 2.0\)"):
            indefinite_integral(lambda t: 1.0, idjump(), a)

    def test_batch_rejects_points_outside(self):
        F = indefinite_integral(lambda t: 1.0, idjump(), 0.5)
        with pytest.raises(WindowDomainError):
            F.batch(np.array([0.7, 0.4]))
        with pytest.raises(WindowDomainError):
            F.right_increment(0.25)


class TestFtc:
    def test_constant_integrand_on_identity(self):
        g = Derivator.identity((0.0, 1.0))
        report = check_ftc(lambda t: 4.0, g, 0.0, 1.0, sample_count=9)
        assert report.max_error_continuous <= 1e-8

    def test_jump_recovery_is_exact(self):
        g = idjump()
        f = lambda t: math.sin(t)
        report = check_ftc(f, g, 0.0, 2.0, sample_count=11)
        assert report.max_relative_error_jumps <= 1e-13
        assert report.max_error_continuous <= 1e-5
        assert 1.0 in [s.t for s in report.samples]
        assert all(type(s.t) is float for s in report.samples)

    def test_jump_samples_are_compared_relatively(self, monkeypatch):
        from stieltjes import derivative

        monkeypatch.setattr(derivative, "stieltjes_derivative", lambda F, g, t: math.sin(t) + 1.0)
        report = check_ftc(math.sin, idjump(), 0.0, 2.0, sample_count=4)
        assert [s.t for s in report.samples] == [0.25, 0.75, 1.25, 1.75, 1.0]
        expected = ((math.sin(1.0) + 1.0) - math.sin(1.0)) / (1.0 + math.sin(1.0))
        assert report.samples[-1].error == report.max_relative_error_jumps == expected
        assert report.max_error_continuous <= 1e-5

    def test_a_nan_value_of_f_is_failed_not_ok(self):
        # as a maximum, the NaN error would be hidden
        f = lambda t: math.nan if t == 0.25 else math.sin(t)
        report = check_ftc(f, Derivator.identity((0.0, 1.0)), 0.0, 1.0, sample_count=2)
        assert [(s.t, s.status) for s in report.samples] == [(0.25, "failed"), (0.75, "ok")]
        assert report.samples[0].error is None
        assert not report.ok()

    def test_integrand_error_at_a_jump_is_filed_as_no_derivative(self, monkeypatch):
        from stieltjes import derivative

        real = derivative.stieltjes_derivative

        def failing_at_jumps(F, g, t):
            if g.jump(t) > 0.0:
                raise IntegrandError(f"f returned nan at t={t}", point=t)
            return real(F, g, t)

        monkeypatch.setattr(derivative, "stieltjes_derivative", failing_at_jumps)
        report = check_ftc(math.sin, idjump(), 0.0, 2.0, sample_count=5)
        assert [s.status for s in report.samples if s.t == 1.0] == ["no-derivative"]
        assert not report.ok()

    def test_ladders_stay_right_of_a_start_inside_the_window(self):
        # F is undefined below a: the left steps of the samples near a used
        # to reach there and raise WindowDomainError
        report = check_ftc(math.sin, Derivator.identity((0.0, 1.0)), 0.5, 1.0, sample_count=5)
        assert [s.status for s in report.samples] == ["ok"] * 5
        assert max(s.error for s in report.samples) <= 1e-5

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.75, 0.25)])
    def test_an_empty_interval_is_refused(self, a, b):
        with pytest.raises(WindowDomainError, match=f"a={a}, b={b}"):
            check_ftc(math.sin, Derivator.identity((0.0, 1.0)), a, b)

    def test_an_end_beyond_the_window_is_refused(self):
        # F is defined on [a, R] only: samples past R used to raise part-way
        with pytest.raises(WindowDomainError, match=r"b=2\.0, R=1\.0"):
            check_ftc(math.sin, Derivator.identity((0.0, 1.0)), 0.0, 2.0, sample_count=4)
        report = check_ftc(math.sin, Derivator.identity((0.0, 1.0)), 0.0, 1.0, sample_count=4)
        assert report.ok()

    def test_constancy_samples_are_skipped(self):
        g = from_classification(Classification(constancy=[(0.0, 1.0)]), window=(-1.0, 2.0))
        report = check_ftc(lambda t: t, g, -1.0, 2.0, sample_count=12)
        assert report.n_skipped_constancy >= 3
        skipped = [s.t for s in report.samples if s.status == "skipped-constancy"]
        assert all(0.0 <= t <= 1.0 for t in skipped)

    def test_a_numerically_flat_derivator_is_skipped_everywhere(self):
        # slope 1e-16: g is flat at every scale of the ladder
        g = Derivator((0.0, 1.0), slopes=[1e-16])
        report = check_ftc(math.sin, g, 0.0, 1.0, sample_count=5)
        assert [s.status for s in report.samples] == ["skipped-constancy"] * 5
        assert report.n_skipped_constancy == 5
        assert report.ok()

    def test_round_trip_randomized(self, rng):
        # 50 random pairs; tolerances match the package-wide FTC contract
        for _ in range(50):
            g = random_derivator(rng, allow_flat=True)
            f = random_smooth_function(rng)
            report = check_ftc(f, g, 0.0, 1.0, sample_count=8)
            assert report.max_error_continuous <= 1e-5
            assert report.max_relative_error_jumps <= 1e-12
            assert not any(s.status == "no-derivative" for s in report.samples)


def _one_sided_quotients(f, g, t, sign):
    """One side of the ladder at one point, as ``stieltjes_derivative``
    evaluated it before the ladders of many points went into one array."""
    left_w, right_w = g.window
    s = np.concatenate(([t], t + sign * np.asarray(_H_STEPS)))
    s = s[(s >= left_w) & (s <= right_w)]
    gs = g.eval(s)
    keep = np.concatenate(([True], np.abs(gs[1:] - gs[0]) >= _FLAT_EPS))
    s, gs = s[keep], gs[keep]
    fs = _sample_finite(f, s, lambda v, q: IntegrandError(
        f"f returned {v} at t={s[q]}", point=s[q]))
    return ((fs[1:] - fs[0]) / (gs[1:] - gs[0])).tolist()


def _reference_derivative(f, g, t):
    """The reference g-derivative at a point where g does not jump."""
    t = float(t)
    for a, b in classify(g).constancy:
        if a < t < b:
            raise DerivativeUndefinedError(
                f"t={t} lies in the constancy interval ({a}, {b}) of the derivator"
            )
    right = _one_sided_quotients(f, g, t, +1)
    left = _one_sided_quotients(f, g, t, -1)
    est_r = _extrapolate(right) if right else None
    est_l = _extrapolate(left) if left else None
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


def _outcome(derivative, f, g, t):
    """The value's bits, or the error's type, message and attached numbers."""
    bits = lambda v: None if v is None else float(v).hex()
    try:
        return bits(derivative(f, g, t))
    except StieltjesError as exc:
        return (type(exc), str(exc), bits(getattr(exc, "left", None)),
                bits(getattr(exc, "right", None)), bits(getattr(exc, "point", None)))


def _continuity_points(rng, g):
    """Random points, points within 2**-4 of both window ends and the ends of
    the constancy intervals, where g does not jump."""
    left, right = g.window
    edge = 2.0 ** -4
    ts = np.concatenate((
        rng.uniform(left, right, 10),
        [left, left + 1e-6, right - 1e-6],
        rng.uniform(left, left + edge, 3),
        rng.uniform(right - edge, right, 3),
        np.ravel(classify(g).constancy),
    ))
    ts = ts[(ts >= left) & (ts < right)]
    return ts[g.jump(ts) == 0.0].tolist()


def _check_ftc_against_the_reference(f, g, n):
    """Assert that each sample of ``check_ftc`` where g does not jump has the
    reference's value or error; return the statuses."""
    report = check_ftc(f, g, 0.0, 1.0, sample_count=n)
    F = indefinite_integral(f, g, 0.0)
    statuses = []
    for s in report.samples:
        if g.jump(s.t) > 0.0:
            continue
        ref = _outcome(_reference_derivative, F, g, s.t)
        if not isinstance(ref, tuple):
            assert (s.status, float(s.derivative).hex()) == ("ok", ref)
        elif ref[0] is DerivativeUndefinedError:
            assert s.status == "skipped-constancy"
        else:
            assert s.status == "no-derivative"
        statuses.append(s.status)
    return statuses


class TestBlockLadderParity:
    """The block ladder against the reference above, bit for bit."""

    def test_stieltjes_derivative_matches_the_reference(self, rng):
        kinds = set()
        expr = ExprFunction(parse("sin(3*t) + t^2 - exp(-t)", 0))
        for _ in range(12):
            g = random_derivator(rng, max_segments=30, max_jumps=4)
            smooth = random_smooth_function(rng)
            # NaN on patches about 0.16 apart: some ladders meet them on both sides
            patchy = lambda t, smooth=smooth: math.nan if math.sin(40.0 * t) > 0.99 else smooth(t)
            for f in (smooth, patchy, expr, indefinite_integral(smooth, g, 0.0)):
                for t in _continuity_points(rng, g):
                    got = _outcome(stieltjes_derivative, f, g, t)
                    assert got == _outcome(_reference_derivative, f, g, t), (f, t)
                    kinds.add(got[0] if isinstance(got, tuple) else float)
        # constancy ends give the known NoDerivativeError; flat windows undefined
        assert kinds == {float, NoDerivativeError, DerivativeUndefinedError, IntegrandError}

    def test_check_ftc_matches_the_reference(self, rng):
        statuses = set()
        for n in (8, 40):
            # breakpoints at k / (2n): the uniform samples (i + 0.5) / n sit on
            # them, so some are ends of constancy intervals
            m = 2 * n
            slopes = rng.uniform(0.5, 2.0, m)
            slopes[rng.random(m) < 0.3] = 0.0
            for g in (Derivator((0.0, 1.0), breakpoints=np.arange(m + 1) / m, slopes=slopes,
                                jumps=[(0.3, 0.1), (0.71, 0.2)]),
                      random_derivator(rng, max_segments=30, max_jumps=4)):
                f = random_smooth_function(rng)
                statuses.update(_check_ftc_against_the_reference(f, g, n))
        assert statuses == {"ok", "skipped-constancy", "no-derivative"}
