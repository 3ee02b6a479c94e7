"""Moduli, Osgood verdicts, the Omega transform, and Bihari bounds.

Closed-form oracles: for omega(s)=s the partial integrals are ln(u0/eps)
and the Bihari bound collapses to the exponential Gronwall form; for
omega(s)=sqrt(s) the integral converges to 2*sqrt(u0).
"""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from stieltjes import (
    BoundInapplicableError,
    ConfigurationError,
    Derivator,
    ModulusOverflowError,
    StieltjesError,
)
from stieltjes.measure import QuadratureConfig
from stieltjes.moduli import (
    OmegaTransform,
    _reciprocal_integral,
    OsgoodModulus,
    bihari_bound,
    exp_iter,
    log_iter,
    omega_k,
    omega_k_modulus,
    osgood_check,
)


# each refuses an argument at construction, as a ValueError that is also a named error
@pytest.mark.parametrize("build", [
    lambda: QuadratureConfig(order=0),
    lambda: QuadratureConfig(panels=0),
    lambda: exp_iter(-1, 1.0),
    lambda: log_iter(0, 2.0),
    lambda: omega_k(0, 0.5),
    lambda: OsgoodModulus(evaluator=lambda s: s + 1.0).validate(),
    lambda: OsgoodModulus(evaluator=lambda s: -s).validate(),
    lambda: OsgoodModulus(evaluator=lambda s: s * (1.5 - s)).validate(u0=1.4),
    lambda: OmegaTransform(lambda s: s, 0.0),
    lambda: OmegaTransform(lambda s: s, 1.0, r_min=2.0),
    lambda: bihari_bound(0.0, lambda t: t, 0.0, 1.0, OmegaTransform(lambda s: s, 1.0)),
], ids=[
    "quadrature-order", "quadrature-panels", "exp-iter-k", "log-iter-k",
    "omega-k-k", "modulus-at-zero", "modulus-negative", "modulus-decreasing",
    "transform-u0", "transform-range", "bihari-kappa",
])
def test_bad_construction_arguments_raise_configuration_error(build):
    with pytest.raises(ConfigurationError) as exc:
        build()
    assert isinstance(exc.value, StieltjesError) and isinstance(exc.value, ValueError)


class TestIteratedExpLog:
    def test_exp_iter_values(self):
        assert exp_iter(0, 1.0) == 1.0
        assert exp_iter(1, 1.0) == pytest.approx(math.e, rel=1e-15)
        assert exp_iter(2, 1.0) == pytest.approx(math.exp(math.e), rel=1e-15)

    def test_log_iter_inverts_exp_iter(self):
        for k, ts in ((1, (0.5, 1.0, 2.0)), (2, (0.5, 1.0, 2.0)), (3, (0.5, 1.0))):
            for t in ts:
                assert log_iter(k, exp_iter(k, t)) == pytest.approx(t, rel=1e-10)

    def test_log_iter_domain(self):
        with pytest.raises(ValueError):
            log_iter(2, 1.0)  # needs t > e^0 = 1
        with pytest.raises(ValueError):
            log_iter(1, 0.0)

    def test_overflow_is_explicit(self):
        with pytest.raises(ModulusOverflowError):
            exp_iter(4, 1.0)
        with pytest.raises(ModulusOverflowError):
            omega_k(4, 0.5)


class TestOmegaK:
    def test_zero_at_zero(self):
        for k in (1, 2, 3):
            assert omega_k(k, 0.0) == 0.0

    def test_k1_branch_value(self):
        # at the branch point both pieces give 1/e
        assert omega_k(1, 1.0 / math.e) == pytest.approx(1.0 / math.e, rel=1e-14)
        assert omega_k(1, 0.9) == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_k1_formula_inside_branch(self):
        t = 0.01
        assert omega_k(1, t) == pytest.approx(t * math.log(1.0 / t), rel=1e-14)

    def test_finite_at_subnormal_arguments(self):
        # 1/s overflows to inf for s below about 5.6e-309; log(1/s) does not
        s = 1e-310
        assert omega_k(1, s) == pytest.approx(s * -math.log(s), rel=1e-14)
        assert omega_k(1, s) == pytest.approx(7.138e-308, rel=1e-3)
        for k in (2, 3):
            assert math.isfinite(omega_k(k, s)) and omega_k(k, s) > 0.0

    def test_branch_plateau_continuity(self):
        for k in (1, 2, 3):
            ek = exp_iter(k, 1.0)
            below = (1.0 / ek) * (1 - 1e-9)
            assert abs(omega_k(k, below) - omega_k(k, 1.0 / ek)) <= 1e-9

    def test_vectorized(self):
        ts = np.array([0.0, 1e-4, 0.2, 5.0])
        vals = omega_k(1, ts)
        assert vals.shape == ts.shape
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(1.0 / math.e)

    def test_monotone_nondecreasing(self):
        for k in (1, 2, 3):
            ts = np.geomspace(1e-14, 10.0, 500)
            vals = omega_k(k, ts)
            assert np.all(np.diff(vals) >= -1e-15)

    def test_subadditive_inequality(self, rng):
        # |omega_k(|x|) - omega_k(|y|)| <= omega_k(|x - y|), 1e5 random pairs
        for k in (1, 2, 3):
            x = rng.uniform(-2.0, 2.0, size=100_000)
            y = rng.uniform(-2.0, 2.0, size=100_000)
            lhs = np.abs(omega_k(k, np.abs(x)) - omega_k(k, np.abs(y)))
            rhs = omega_k(k, np.abs(x - y))
            assert np.all(lhs <= rhs + 1e-12)


class TestOmegaKScalarBranch:
    """A float takes a scalar branch with numpy's log: the bits of the array path."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_bits_as_the_array_path(self, rng, k):
        cut = 1.0 / exp_iter(k, 1.0)
        tiny = np.finfo(float).tiny  # the smallest normal double
        ts = np.concatenate([
            [0.0, -0.0, 5e-324, tiny, np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0), 1e300],
            rng.uniform(0.0, tiny, 10_000),  # subnormals
            np.geomspace(5e-324, 1e300, 50_000),
            rng.uniform(0.0, cut, 30_000),
            rng.uniform(cut, 2.0, 10_000),  # the plateau
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            array = omega_k(k, ts)
        scalar = [omega_k(k, t) for t in ts.tolist()]
        assert all(type(v) is float for v in scalar)
        assert array.tobytes() == np.array(scalar).tobytes()
        assert omega_k(k, cut) == omega_k(k, 1e300)  # the plateau starts at 1/e_k

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("bad", [-5e-324, -1.0, -math.inf, math.inf, math.nan])
    def test_same_error_for_a_float_and_an_array(self, k, bad):
        for t in (bad, np.array([0.5, bad]), np.array(bad)):
            with pytest.raises(ValueError, match="omega_k is defined for finite t >= 0"):
                omega_k(k, t)
        assert omega_k_modulus(k).batch(np.array([0.5, bad])) is None


class TestOsgoodCheck:
    def test_linear_modulus_diverges(self):
        report = osgood_check(lambda s: s, u0=1.0)
        assert report.verdict == "DIVERGENT"
        # oracle: I(eps) = ln(u0/eps)
        for eps, val in report.trace_rows():
            assert val == pytest.approx(math.log(1.0 / eps), rel=1e-10)

    def test_square_modulus_diverges(self):
        # I(eps) = 1/eps - 1/u0 grows without bound
        report = osgood_check(lambda s: s * s, u0=1.0)
        assert report.verdict == "DIVERGENT"

    def test_sqrt_modulus_converges(self):
        report = osgood_check(lambda s: math.sqrt(s), u0=1.0)
        assert report.verdict == "CONVERGENT"
        for eps, val in report.trace_rows():
            assert val == pytest.approx(2.0 * (1.0 - math.sqrt(eps)), rel=1e-9)

    def test_omega_k_family_diverges(self):
        for k in (1, 2, 3):
            report = osgood_check(omega_k_modulus(k), u0=1.0 / math.e)
            assert report.verdict == "DIVERGENT", f"k={k}: {report.increments[-6:]}"

    def test_omega1_trace_oracle(self):
        # antiderivative of 1/(s log(1/s)) is -log(log(1/s))
        report = osgood_check(omega_k_modulus(1), u0=1.0 / math.e)
        for eps, val in report.trace_rows():
            expected = math.log(math.log(1.0 / eps)) - math.log(math.log(math.e))
            assert val == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("modulus", [omega_k_modulus(2), lambda s: math.sqrt(s)])
    @pytest.mark.parametrize("u0", [1.0, 0.1, 0.02, 3.0])
    def test_one_batched_call_equals_one_call_per_interval(self, modulus, u0):
        report = osgood_check(modulus, u0)
        eps = report.epsilons
        one = lambda lo, hi: float(_reciprocal_integral(modulus, np.array([lo]), np.array([hi]))[0])
        assert report.increments == [one(eps[m + 1], eps[m]) for m in range(len(eps) - 1)]
        first = one(min(eps[0], u0), max(eps[0], u0))
        partial = [-first if eps[0] > u0 else first]
        for j in report.increments:
            partial.append(partial[-1] + j)
        assert report.partial_integrals == partial

    def test_u0_validation(self):
        with pytest.raises(ValueError):
            osgood_check(lambda s: s, u0=0.0)

    @pytest.mark.parametrize("u0", [math.nan, math.inf, -math.inf])
    def test_non_finite_u0_is_refused(self, u0):
        # nan used to give DIVERGENT and inf a NaN sample of the modulus
        with pytest.raises(ConfigurationError, match="u0"):
            osgood_check(lambda s: s, u0)


class TestOsgoodModulus:
    def test_validate_accepts_good(self):
        OsgoodModulus(evaluator=lambda s: s, name="linear").validate()

    def test_validate_rejects_nonzero_origin(self):
        with pytest.raises(ValueError):
            OsgoodModulus(evaluator=lambda s: s + 1.0).validate()

    def test_validate_rejects_decreasing(self):
        with pytest.raises(ValueError):
            OsgoodModulus(evaluator=lambda s: s * (1.5 - s)).validate(u0=1.4)


class TestOmegaTransform:
    def test_anchored_at_zero(self):
        tr = OmegaTransform(lambda s: s, u0=1.0)
        assert tr.omega_of(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_matches_log_closed_form(self):
        tr = OmegaTransform(lambda s: s, u0=1.0)
        for r in np.geomspace(1e-6, 1e6, 25):
            assert tr.omega_of(r) == pytest.approx(math.log(r), rel=1e-10, abs=1e-10)

    def test_strictly_increasing(self):
        tr = OmegaTransform(omega_k_modulus(1), u0=0.25)
        assert np.all(np.diff(tr.values) > 0)

    @pytest.mark.parametrize("modulus, u0, r_min, r_max", [
        (omega_k_modulus(1), 1.0, None, None),
        (omega_k_modulus(2), 0.05, 1e-9, 10.0),
        (omega_k_modulus(3), 0.37, 0.37e-6, 1e120),
        (lambda s: 2.0 * s + s * s, 0.01, 1e-9, 3.0),
    ])
    def test_table_equals_one_integral_per_cell(self, modulus, u0, r_min, r_max):
        # the batched build against the running sums of per-cell integrals
        tr = OmegaTransform(modulus, u0, r_min=r_min, r_max=r_max)
        grid = tr.r_grid
        cell = lambda k: float(
            _reciprocal_integral(modulus, grid[k:k + 1], grid[k + 1:k + 2], panels=4)[0])
        anchor = int(np.searchsorted(grid, u0))
        values = np.empty(grid.size)
        values[anchor] = 0.0
        for k in range(anchor, grid.size - 1):
            values[k + 1] = values[k] + cell(k)
        for k in range(anchor, 0, -1):
            values[k - 1] = values[k] - cell(k - 1)
        assert np.array_equal(tr.values, values)

    def test_between_nodes_matches_the_closed_form(self):
        # omega_k(1)(s) = s log(1/s): Omega(r) = log log(1/u0) - log log(1/r)
        tr = OmegaTransform(omega_k_modulus(1), 0.25, r_min=1e-10, r_max=0.3)
        for r in np.geomspace(1.01e-10, 0.299, 5000).tolist():
            exact = math.log(math.log(4.0)) - math.log(math.log(1.0 / r))
            assert abs(tr.omega_of(r) - exact) <= 1e-6 * (1.0 + abs(exact))

    def test_nondecreasing_between_nodes(self):
        # 1/omega changes by orders of magnitude per cell near r_min, where
        # uncapped Hermite slopes overshoot
        tr = OmegaTransform(lambda s: s * math.exp(-1.0 / s), 0.5, r_min=0.02, r_max=5.0)
        values = tr._forward(np.linspace(tr._x[0], tr._x[-1], 200_001))
        assert np.all(np.diff(values) >= 0.0)

    def test_inverse_round_trip(self):
        tr = OmegaTransform(omega_k_modulus(2), u0=0.05, r_min=1e-9, r_max=10.0)
        for r in np.geomspace(1e-8, 5.0, 40):
            back = tr.inverse(tr.omega_of(r))
            assert back == pytest.approx(r, rel=1e-8)

    def test_table_spanning_600_decades(self):
        # r_max / r_min overflows a double; the decade count must not
        tr = OmegaTransform(lambda s: s, 1.0, r_min=1e-300, r_max=1e300)
        assert tr.r_grid[0] == 1e-300 and tr.r_grid[-1] == 1e300
        assert tr.r_grid.size == 24 * 600 + 1
        assert np.all(np.diff(tr.values) > 0)
        for r in (2e-300, 1e-299, 5e299, 9e299):
            assert tr.omega_of(r) == pytest.approx(math.log(r), rel=1e-10)
            assert tr.inverse(tr.omega_of(r)) == pytest.approx(r, rel=1e-8)

    @pytest.mark.parametrize("modulus, u0, r_min, r_max", [
        (omega_k_modulus(1), 1.0, None, None),
        (omega_k_modulus(2), 0.05, 1e-9, 10.0),
        (lambda s: s, 1.0, 1e-150, 1e150),
    ])
    def test_inverse_of_an_array_matches_brentq(self, rng, modulus, u0, r_min, r_max):
        # the reference: one brentq per target on the same monotone table
        tr = OmegaTransform(modulus, u0, r_min=r_min, r_max=r_max)
        ys = np.concatenate((rng.uniform(tr.lower, tr.upper, 200), tr.values[::7],
                             [tr.lower, tr.upper]))
        got = tr.inverse(ys)
        for y, r in zip(ys.tolist(), got.tolist()):
            k = int(np.searchsorted(tr.values, y))
            if tr.values[k] == y:
                ref = tr.r_grid[k]
            else:
                ref = math.exp(brentq(lambda u: float(tr._forward(u)) - y, tr._x[k - 1],
                                      tr._x[k], xtol=1e-15, rtol=1e-15))
            assert r == pytest.approx(ref, rel=1e-12)
            assert tr.inverse(y) == r and isinstance(tr.inverse(y), float)

    def test_inverse_rejects_targets_outside_the_table(self):
        tr = OmegaTransform(lambda s: s, u0=1.0)
        with pytest.raises(ValueError, match="outside the tabulated range"):
            tr.inverse(np.array([0.0, tr.upper + 1.0]))


class TestBihariBound:
    def test_gronwall_closed_form(self):
        # omega(s) = s, u0 = 1: bound(t) = kappa * exp(h(t) - h(a))
        tr = OmegaTransform(lambda s: s, u0=1.0)
        h = Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 0.5)])
        kappa = 0.3
        bound = bihari_bound(kappa, h, 0.0, 2.0, tr)
        for t in np.linspace(0.0, 2.0, 100):
            expected = kappa * math.exp(h.eval(t) - h.eval(0.0))
            assert bound(float(t)) == pytest.approx(expected, rel=1e-8)

    def test_constant_h_gives_constant_kappa(self):
        tr = OmegaTransform(lambda s: s, u0=1.0)
        h = Derivator.constant((0.0, 1.0), value=7.0)
        bound = bihari_bound(0.9, h, 0.0, 1.0, tr)
        for t in (0.0, 0.4, 1.0):
            assert bound(t) == pytest.approx(0.9, rel=1e-10)

    def test_anchored_at_kappa(self):
        tr = OmegaTransform(omega_k_modulus(1), u0=0.25, r_min=1e-10, r_max=10.0)
        h = Derivator.identity((0.0, 1.0))
        bound = bihari_bound(1e-6, h, 0.0, 1.0, tr)
        assert bound(0.0) == pytest.approx(1e-6, rel=1e-8)

    def test_array_equals_per_point_calls(self):
        tr = OmegaTransform(omega_k_modulus(1), u0=0.25, r_min=1e-10, r_max=10.0)
        h = Derivator.identity((0.0, 1.0)).with_jumps([(0.3, 0.5)])
        bound = bihari_bound(1e-3, h, 0.0, 1.0, tr)
        ts = np.concatenate((np.linspace(0.0, 1.0, 101), [0.3]))
        got = bound(ts)
        assert got.shape == ts.shape
        for t, b in zip(ts.tolist(), got.tolist()):
            assert b == pytest.approx(bound(t), rel=1e-12)
        with pytest.raises(ValueError, match="outside"):
            bound(np.array([0.5, 1.5]))

    def test_nondecreasing(self):
        tr = OmegaTransform(lambda s: s, u0=1.0)
        h = Derivator.identity((0.0, 2.0)).with_jumps([(0.7, 1.0)])
        bound = bihari_bound(0.5, h, 0.0, 2.0, tr)
        ts = np.linspace(0, 2, 50)
        vals = [bound(float(t)) for t in ts]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_precondition_violation(self):
        # tiny table: the required growth exceeds the tabulated beta estimate
        tr = OmegaTransform(lambda s: s, u0=1.0, r_min=0.5, r_max=2.0)
        h = Derivator.identity((0.0, 2.0))
        with pytest.raises(BoundInapplicableError) as exc:
            bihari_bound(1.0, h, 0.0, 2.0, tr)
        assert exc.value.required is not None
        assert exc.value.available is not None
