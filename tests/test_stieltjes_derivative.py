"""Stieltjes derivatives: jump quotients, continuity points, FTC round trip.

Continuity-point estimates carry tolerance 1e-6..1e-5 (dyadic ladder with
Richardson); jump quotients against indefinite integrals are exact to
machine precision because the atom increment is computed symbolically.
"""

import math

import numpy as np
import pytest

from stieltjes import (
    Classification,
    Derivator,
    DerivativeUndefinedError,
    IntegrandError,
    NoDerivativeError,
    WindowDomainError,
    from_classification,
)
from stieltjes.derivative import (
    DifferencingConfig,
    check_ftc,
    indefinite_integral,
    stieltjes_derivative,
)

from conftest import random_derivator, random_smooth_function


def idjump():
    return Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 1.0)])


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
                cum.append(cum[-1] + integrate(g, f, lo, hi, F.quad))
            assert np.array_equal([F(t) for t in nodes], cum)

    def test_batch_rejects_points_outside(self):
        F = indefinite_integral(lambda t: 1.0, idjump(), 0.5)
        with pytest.raises(WindowDomainError):
            F.batch(np.array([0.7, 0.4]))


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

    def test_integrand_error_at_a_jump_is_filed_as_no_derivative(self, monkeypatch):
        from stieltjes import derivative

        real = derivative.stieltjes_derivative

        def failing_at_jumps(F, g, t, cfg=None):
            if g.jump(t) > 0.0:
                raise IntegrandError(f"f returned nan at t={t}", point=t)
            return real(F, g, t, cfg)

        monkeypatch.setattr(derivative, "stieltjes_derivative", failing_at_jumps)
        report = check_ftc(math.sin, idjump(), 0.0, 2.0, sample_count=5)
        assert [s.status for s in report.samples if s.t == 1.0] == ["no-derivative"]
        assert not report.ok()

    def test_constancy_samples_are_skipped(self):
        g = from_classification(Classification(constancy=[(0.0, 1.0)]), window=(-1.0, 2.0))
        report = check_ftc(lambda t: t, g, -1.0, 2.0, sample_count=12)
        assert report.n_skipped_constancy >= 3
        skipped = [s.t for s in report.samples if s.status == "skipped-constancy"]
        assert all(0.0 <= t <= 1.0 for t in skipped)

    def test_round_trip_randomized(self, rng):
        # 50 random pairs; tolerances match the package-wide FTC contract
        for _ in range(50):
            g = random_derivator(rng, allow_flat=True)
            f = random_smooth_function(rng)
            report = check_ftc(f, g, 0.0, 1.0, sample_count=8)
            assert report.max_error_continuous <= 1e-5
            assert report.max_relative_error_jumps <= 1e-12
            assert not any(s.status == "no-derivative" for s in report.samples)
