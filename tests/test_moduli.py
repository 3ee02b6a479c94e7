"""Moduli, Osgood verdicts, the Omega transform, and Bihari bounds.

Closed-form oracles: for omega(s)=s the partial integrals are ln(u0/eps)
and the Bihari bound collapses to the exponential Gronwall form; for
omega(s)=sqrt(s) the integral converges to 2*sqrt(u0).
"""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from stieltjes import (
    BoundInapplicableError,
    ConfigurationError,
    Derivator,
    IntegrandError,
    ModulusOverflowError,
    StieltjesError,
)
from stieltjes.measure import QuadratureConfig
from stieltjes.moduli import (
    OmegaTransform,
    _reciprocal_integral,
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
    lambda: OmegaTransform(lambda s: s * (1.5 - s), 1.0, r_max=1.4),
    lambda: OmegaTransform(lambda s: s, 0.0),
    lambda: OmegaTransform(lambda s: s, 1.0, r_min=2.0),
    lambda: OmegaTransform(lambda s: s, 1.0, r_min=math.nan),
    lambda: OmegaTransform(lambda s: s, 1.0, r_max=math.inf),
    lambda: OmegaTransform(lambda s: s, 1.0, r_max=1.79e308),  # its cell's top edge overflows
    lambda: osgood_check(lambda s: s, 1.79e308),
    lambda: bihari_bound(0.0, lambda t: t, 0.0, 1.0, OmegaTransform(lambda s: s, 1.0)),
    # a count is an integer >= 1 and never a bool; these raised a raw TypeError or were accepted
    lambda: QuadratureConfig(order=2.5),
    lambda: QuadratureConfig(order=math.nan),
    lambda: QuadratureConfig(order=True),
    lambda: QuadratureConfig(panels=1.5),
    lambda: QuadratureConfig(panels=math.inf),
    lambda: exp_iter(1.5, 1.0),
    lambda: exp_iter(True, 1.0),
    lambda: log_iter(2.0, 3.0),
    lambda: omega_k(2.5, 0.5),
    lambda: omega_k(True, 0.5),
    lambda: omega_k_modulus(0),
    lambda: omega_k_modulus(2.5),
    lambda: omega_k_modulus(True),
    lambda: omega_k_modulus([1]),
    lambda: bihari_bound(math.nan, lambda t: t, 0.0, 1.0, OmegaTransform(lambda s: s, 1.0)),
    # exp_iter's k = 0 is a number of stages, not a bool or a float
    lambda: exp_iter(False, 1.0),
    lambda: exp_iter(0.0, 1.0),
    # float() used to turn these into 1.0 and 2.0
    lambda: bihari_bound(True, lambda t: t, 0.0, 1.0, OmegaTransform(lambda s: s, 1.0)),
    lambda: bihari_bound("2", lambda t: t, 0.0, 1.0, OmegaTransform(lambda s: s, 1.0)),
], ids=[
    "quadrature-order", "quadrature-panels", "exp-iter-k", "log-iter-k",
    "omega-k-k", "modulus-decreasing", "transform-u0", "transform-range",
    "transform-r-min-nan", "transform-r-max-inf", "transform-r-max-huge", "osgood-u0-huge",
    "bihari-kappa",
    "quadrature-order-2.5", "quadrature-order-nan", "quadrature-order-true",
    "quadrature-panels-1.5", "quadrature-panels-inf", "exp-iter-k-1.5", "exp-iter-k-true",
    "log-iter-k-2.0", "omega-k-k-2.5", "omega-k-k-true", "omega-k-modulus-0",
    "omega-k-modulus-2.5", "omega-k-modulus-true", "omega-k-modulus-list", "bihari-kappa-nan",
    "exp-iter-k-false", "exp-iter-k-0.0", "bihari-kappa-true", "bihari-kappa-str",
])
def test_bad_construction_arguments_raise_configuration_error(build):
    with pytest.raises(ConfigurationError) as exc:
        build()
    assert isinstance(exc.value, StieltjesError) and isinstance(exc.value, ValueError)


class TestIteratedExpLog:
    def test_exp_iter_names_its_least_k(self):
        with pytest.raises(ConfigurationError, match=r"k must be an integer >= 0, got -1"):
            exp_iter(-1, 1.0)

    def test_exp_iter_values(self):
        assert exp_iter(0, 1.0) == 1.0
        assert exp_iter(1, 1.0) == pytest.approx(math.e, rel=1e-15)
        assert exp_iter(2, 1.0) == pytest.approx(math.exp(math.e), rel=1e-15)

    def test_log_iter_inverts_exp_iter(self):
        for k, ts in ((1, (0.5, 1.0, 2.0)), (2, (0.5, 1.0, 2.0)), (3, (0.5, 1.0))):
            for t in ts:
                assert log_iter(k, exp_iter(k, t)) == pytest.approx(t, rel=1e-10)

    def test_log_iter_domain(self):
        with pytest.raises(ConfigurationError):
            log_iter(2, 1.0)  # needs t > e^0 = 1
        with pytest.raises(ConfigurationError):
            log_iter(1, 0.0)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_exp_iter_refuses_nan(self, k):
        # it used to return nan for k = 0 and report an overflow for k >= 1
        with pytest.raises(ConfigurationError, match="t must be a finite real number, got nan"):
            exp_iter(k, math.nan)

    @pytest.mark.parametrize("k", [1, 2])
    def test_log_iter_refuses_nan(self, k):
        with pytest.raises(ConfigurationError, match="t must be a finite real number, got nan"):
            log_iter(k, math.nan)

    def test_overflow_is_explicit(self):
        with pytest.raises(ModulusOverflowError):
            exp_iter(4, 1.0)
        with pytest.raises(ModulusOverflowError):
            omega_k(4, 0.5)
        with pytest.raises(ModulusOverflowError):  # when built, not at its first use
            omega_k_modulus(4)

    def test_true_is_refused_after_k_1_filled_the_cache(self):
        # True == 1 and hash(True) == hash(1): an untyped cache of the
        # constants would hand True the entry of k = 1
        assert omega_k(1, 0.5) == omega_k_modulus(1)(0.5)
        with pytest.raises(ConfigurationError, match="k must be an integer >= 1, got True"):
            omega_k(True, 0.5)
        with pytest.raises(ConfigurationError, match="got True"):
            omega_k_modulus(True)


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
        # a point that is not finite is refused by the reader of points, naming the entry
        message = ("omega_k is defined for finite t >= 0" if math.isfinite(bad)
                   else r"t(\[1\])? must be a finite real number")
        for t in (bad, np.array([0.5, bad]), np.array(bad)):
            with pytest.raises(ConfigurationError, match=message):
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
    def test_increments_are_sums_of_cells_each_integrated_alone(self, modulus, u0):
        # the cells [10^(j/32), 10^((j+1)/32)]: 32 to a decade, 0.1 the edge of cell -32
        report = osgood_check(modulus, u0)
        one = lambda lo, hi: float(_reciprocal_integral(modulus, np.array([lo]), np.array([hi]))[0])
        cell = lambda j: one(10.0 ** (j / 32), 10.0 ** ((j + 1) / 32))
        assert report.increments == [
            math.fsum(cell(j) for j in range(-32 * (m + 2), -32 * (m + 1))) for m in range(11)]
        ju = math.floor(32 * math.log10(u0))  # u0 lies inside cell ju for these u0
        assert 10.0 ** (ju / 32) <= u0 < 10.0 ** ((ju + 1) / 32)
        whole = math.fsum(cell(j) for j in range(min(ju, -32), max(ju, -32)))
        partial = [(whole if ju >= -32 else -whole) + one(10.0 ** (ju / 32), u0)]
        for j in report.increments:
            partial.append(partial[-1] + j)
        assert report.partial_integrals == partial

    @pytest.mark.parametrize("modulus", [
        lambda s: s, lambda s: s * s, math.sqrt, lambda s: 3000.0 * s,
        lambda s: s * math.log(1.0 / s) ** 1.5,
        omega_k_modulus(1), omega_k_modulus(2), omega_k_modulus(3),
    ], ids=["s", "s^2", "sqrt", "3000s", "s-log^1.5", "omega_1", "omega_2", "omega_3"])
    def test_the_verdict_does_not_depend_on_u0(self, modulus):
        # the verdict reads per-decade increments over [1e-12, 0.1]; u0 only
        # moves the first partial integral
        one, small = osgood_check(modulus, 1.0), osgood_check(modulus, 0.01)
        assert one.increments == small.increments
        assert one.verdict == small.verdict

    def test_a_modulus_vanishing_near_zero_is_named(self):
        with pytest.raises(IntegrandError, match=r"modulus returned 0\.0 at s=") as info:
            osgood_check(lambda s: max(s - 1e-6, 0.0), 1.0)
        assert 0.0 < info.value.point <= 1e-6

    @pytest.mark.parametrize("build", [
        lambda omega: osgood_check(omega, 1.0), lambda omega: OmegaTransform(omega, 1.0),
    ], ids=["osgood_check", "OmegaTransform"])
    def test_a_tiny_modulus_raises_the_named_error_not_a_warning(self, build):
        # s / omega(s) = 1e310 overflows; numpy used to warn before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrandError, match="non-finite reciprocal-modulus sample"):
                build(lambda s: 1e-310 * s)

    def test_u0_validation(self):
        with pytest.raises(ValueError):
            osgood_check(lambda s: s, u0=0.0)

    @pytest.mark.parametrize("u0", [math.nan, math.inf, -math.inf])
    def test_non_finite_u0_is_refused(self, u0):
        # nan used to give DIVERGENT and inf a NaN sample of the modulus
        with pytest.raises(ConfigurationError, match="u0"):
            osgood_check(lambda s: s, u0)


class TestModulusRefusals:
    """What makes a modulus: omega(0) = 0, omega > 0 beyond, nondecreasing.

    The osgood check reads omega(0) > 0 as a convergent integral, every
    sample of omega must be positive, and the Omega view refuses a drop
    between its nodes (``TestAprioriBound`` makes the same refusals).
    """

    def test_a_modulus_positive_at_zero_is_convergent(self):
        assert osgood_check(lambda s: s + 1.0, 1.0).verdict == "CONVERGENT"

    @pytest.mark.parametrize("build", [
        lambda omega: osgood_check(omega, 1.0), lambda omega: OmegaTransform(omega, 1.0),
    ], ids=["osgood_check", "OmegaTransform"])
    def test_a_negative_modulus_is_named(self, build):
        with pytest.raises(IntegrandError, match=r"modulus returned -[0-9.e-]+ at s="):
            build(lambda s: -s)

    def test_a_decreasing_modulus_is_refused_by_the_view_only(self):
        # s (1.5 - s) peaks at 0.75: the nodes 10^(-4/32) and 10^(-3/32) straddle it
        with pytest.raises(ConfigurationError, match=(
                r"must be nondecreasing, but omega\(0\.74989[0-9]*\) = 0\.56249[0-9]* > "
                r"omega\(0\.80584[0-9]*\) = 0\.55938")):
            OmegaTransform(lambda s: s * (1.5 - s), 1.0, r_max=1.4)
        assert osgood_check(lambda s: s * (1.5 - s), 1.0).verdict == "DIVERGENT"

    @pytest.mark.parametrize("modulus, r_min", [
        (omega_k_modulus(1), 1e-14), (omega_k_modulus(2), 1e-14), (omega_k_modulus(3), 1e-14),
        (lambda s: s, 1e-14), (math.sqrt, 1e-14), (lambda s: 2.0 * s + s * s, 1e-14),
        (lambda s: min(s, 0.1), 1e-14), (lambda s: s * math.exp(-1.0 / s), 0.01),
    ], ids=["omega_1", "omega_2", "omega_3", "s", "sqrt", "2s+s^2", "min-s-0.1", "s-exp"])
    def test_nondecreasing_moduli_pass_the_view(self, modulus, r_min):
        # s exp(-1/s) underflows to 0 below about 1.4e-3
        tr = OmegaTransform(modulus, 1.0, r_min=r_min, r_max=1e9)
        assert tr.r_grid[0] <= r_min and tr.r_grid[-1] >= 1e9


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
        # the nodes are the edges 10^(j/32) of the whole cells that cover
        # [r_min, r_max]; the values, the running sums of the cells, each
        # integrated alone, from the node at or below u0, shifted so Omega(u0) = 0
        tr = OmegaTransform(modulus, u0, r_min=r_min, r_max=r_max)
        r_min, r_max = r_min or u0 * 1e-8, r_max or u0 * 1e8
        grid = tr.r_grid
        first = round(32 * math.log10(grid[0]))
        assert grid.tolist() == [10.0 ** ((first + k) / 32) for k in range(grid.size)]
        assert grid[0] <= r_min < grid[1] and grid[-2] < r_max <= grid[-1]
        cell = lambda k: float(_reciprocal_integral(modulus, grid[k:k + 1], grid[k + 1:k + 2])[0])
        anchor = int(np.searchsorted(grid, u0, side="right")) - 1
        sums = np.empty(grid.size)
        sums[anchor] = 0.0
        for k in range(anchor, grid.size - 1):
            sums[k + 1] = sums[k] + cell(k)
        for k in range(anchor, 0, -1):
            sums[k - 1] = sums[k] - cell(k - 1)
        shift = -tr.values[anchor]
        assert np.array_equal(tr.values, sums - shift)
        assert abs(shift) <= tr.values[anchor + 1] - tr.values[anchor]  # inside u0's cell
        assert abs(tr.omega_of(u0)) <= 1e-15 * (1.0 + abs(shift))

    def test_omega_at_a_node_does_not_depend_on_the_range(self):
        # one table of cells: two views share every node value they both hold
        modulus = omega_k_modulus(1)
        small = OmegaTransform(modulus, 1.0, r_min=1.3e-7, r_max=1e2)
        large = OmegaTransform(modulus, 1.0, r_min=2e-8, r_max=1e6)
        k = int(np.searchsorted(large.r_grid, small.r_grid[0]))
        assert np.array_equal(large.r_grid[k:k + small.r_grid.size], small.r_grid)
        assert np.array_equal(large.values[k:k + small.r_grid.size], small.values)

    @pytest.mark.parametrize("r_min", [1e-7, 1.3e-7, 3.3e-7, 2e-8])
    @pytest.mark.parametrize("r_max", [37.0, 100.0, 1e6])
    def test_omega_k1_within_1e_6_of_the_closed_form(self, r_min, r_max):
        # omega_k(1), u0 = 1: Omega(r) = 1 - e - log log(1/r) below 1/e and
        # e (r - 1) above; the view's Omega^-1 of the exact Omega is r within 1e-6
        def exact(r):
            if r < 1.0 / math.e:
                return 1.0 - math.e - math.log(math.log(1.0 / r))
            return math.e * (r - 1.0)

        tr = OmegaTransform(omega_k_modulus(1), 1.0, r_min=r_min, r_max=r_max)
        rs = np.geomspace(r_min, r_max, 2001)[1:-1]
        got = tr.inverse(np.array([exact(r) for r in rs.tolist()]))
        assert np.max(np.abs(got - rs) / rs) <= 1e-6

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
        assert tr.r_grid.size == 32 * 600 + 1
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

    @pytest.mark.parametrize("r", [1e-9, 1e9])
    def test_omega_of_refuses_r_outside_the_table(self, r):
        tr = OmegaTransform(lambda s: s, u0=1.0)  # r from 1e-8 to 1e8
        with pytest.raises(ValueError, match=re.escape(
                f"r={r} outside the tabulated range [1e-08, 100000000.0]")):
            tr.omega_of(r)

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
