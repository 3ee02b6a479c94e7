"""Solvers for multi-derivator systems: oracles, exactness, certificates.

Oracles used here:
  * impulsive exponential x' = x, unit jump of g at t=1: piecewise closed
    form, x(1) = e, x(1+) = 2e, x(2-) = 2e^2;
  * pure-jump derivators: the finite impulse recursion is the solution;
  * classical limit (identity derivators): scipy's RK45 at tight tolerance.
"""

import dataclasses
import json
import math
import tracemalloc
from operator import add, mul

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from stieltjes import (
    BoundInapplicableError,
    ConfigurationError,
    Derivator,
    DomainExitError,
    ExprDomainError,
    IntegrandError,
    ModulusOverflowError,
    NoCertifiedHorizonError,
    NonConvergenceError,
    SolverError,
    StieltjesError,
    WindowDomainError,
)
from stieltjes import solver
from stieltjes.expr import ExprFunction, parse
from stieltjes.moduli import OsgoodModulus, omega_k, omega_k_modulus
from stieltjes.solver import (
    AprioriBound,
    IVProblem,
    SolutionTrace,
    _AbsRhsAtX0,
    _check_ball,
    _GridData,
    apriori_bound,
    build_grid,
    caratheodory_bound_check,
    horizon_for_ball,
    residual,
    solve_euler,
    solve_picard,
    uniqueness_certificate,
)
from test_expr import random_source

LINEAR = OsgoodModulus(evaluator=lambda s: s, name="linear")


def impulsive_problem(**kw):
    g = Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 1.0)])
    return IVProblem(0.0, 2.0, [1.0], [g], [lambda t, x: x[0]], **kw)


def root_split_integral(g, f, x0, a, b, quad=None):
    """``integrate`` of |f(., x0)| over [a, b) against g, cut at the roots of f(., x0).

    The roots are found with ``brentq`` in every sign change of f(., x0) on
    512 equal steps, so each piece integrates a smooth function.
    """
    from stieltjes import integrate

    F = lambda s: f(s, x0)
    ts = np.linspace(a, b, 513).tolist()
    vs = [F(t) for t in ts]
    roots = [brentq(F, lo, hi, xtol=1e-16) for lo, hi, u, v in zip(ts, ts[1:], vs, vs[1:])
             if u * v < 0.0]
    cuts = [a, *roots, b]
    return sum(integrate(g, lambda s: abs(F(s)), lo, hi, quad) for lo, hi in zip(cuts, cuts[1:]))


def classical_problem():
    g = Derivator.identity((0.0, 1.0))
    return IVProblem(0.0, 1.0, [1.0], [g], [lambda t, x: x[0]])


class TestBuildGrid:
    def test_uniform_no_jumps(self):
        p = classical_problem()
        assert np.array_equal(build_grid(p, n_steps=4), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_jump_inserted(self):
        p = impulsive_problem()
        grid = build_grid(p, sigma=2.0, n_steps=3)
        assert 1.0 in grid
        assert grid[0] == 0.0 and grid[-1] == 2.0

    def test_shared_jump_deduplicated(self):
        g1 = Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 0.5)])
        g2 = Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 0.25)])
        p = IVProblem(0.0, 2.0, [0.0, 0.0], [g1, g2],
                      [lambda t, x: 0.0, lambda t, x: 0.0])
        grid = build_grid(p, n_steps=4)
        assert np.count_nonzero(grid == 1.0) == 1

    def test_validation(self):
        p = classical_problem()
        with pytest.raises(ConfigurationError):
            build_grid(p, sigma=2.0)
        with pytest.raises(ConfigurationError):
            build_grid(p, n_steps=0)

    # a string and a bool used to be read by float()
    @pytest.mark.parametrize("sigma", [2.0, 0.0, math.nan, "0.5", True])
    def test_a_sigma_outside_the_horizon_is_refused(self, sigma):
        with pytest.raises(ConfigurationError, match="sigma must"):
            build_grid(classical_problem(), sigma=sigma)

    @pytest.mark.parametrize("n_steps", [2.5, math.nan, True])
    def test_a_non_integer_step_count_is_refused(self, n_steps):
        # it used to reach np.linspace and raise a raw TypeError
        with pytest.raises(ConfigurationError, match="n_steps"):
            build_grid(classical_problem(), n_steps=n_steps)


class TestProblemValidation:
    def test_dimension_mismatch(self):
        g = Derivator.identity((0.0, 1.0))
        with pytest.raises(ConfigurationError):
            IVProblem(0.0, 1.0, [1.0, 2.0], [g], [lambda t, x: 0.0])

    def test_window_must_contain_horizon(self):
        g = Derivator.identity((0.0, 1.0))
        with pytest.raises(ConfigurationError):
            IVProblem(0.0, 1.5, [1.0], [g], [lambda t, x: 0.0])

    @pytest.mark.parametrize("field, value", [
        ("t0", math.nan), ("t0", -math.inf), ("horizon", math.nan), ("horizon", math.inf),
        ("ball_radius", math.nan), ("ball_radius", math.inf), ("x0", [1.0, math.nan]),
        ("ball_radius", True),
        # strings, bools, complex numbers, nested lists and integers beyond the float range used
        # to be read by float() or np.asarray, or to raise a raw TypeError or OverflowError
        ("t0", "0"), ("t0", [0.0]), ("t0", True), ("horizon", "1"), ("horizon", 10**400),
        ("x0", ["1", 2.0]), ("x0", [1j, 2.0]), ("x0", [[1.0], [2.0]]), ("x0", [10**400, 2.0]),
        ("x0", 1.0), ("ball_radius", "2"),
    ])
    def test_non_finite_data_rejected(self, field, value):
        g = Derivator.identity((-10.0, 10.0))
        kw = dict(t0=0.0, horizon=1.0, x0=[1.0, 2.0], derivators=[g, g],
                  rhs=[lambda t, x: 0.0] * 2)
        kw[field] = value
        with pytest.raises(ConfigurationError, match=field):
            IVProblem(**kw)

    def test_bad_ball(self):
        g = Derivator.identity((0.0, 1.0))
        with pytest.raises(ConfigurationError):
            IVProblem(0.0, 1.0, [1.0], [g], [lambda t, x: 0.0], ball_radius=0.0)

    def test_empty_state(self):
        with pytest.raises(ConfigurationError, match="x0 must have at least one component"):
            IVProblem(0.0, 1.0, [], [], [])

    def test_derivators_must_be_derivators(self):
        g = Derivator.identity((0.0, 1.0))
        with pytest.raises(ConfigurationError, match=r"derivators\[1\] is not a Derivator"):
            IVProblem(0.0, 1.0, [1.0, 2.0], [g, lambda t: t], [lambda t, x: 0.0] * 2)


class TestRefusals:
    @pytest.mark.parametrize("grid", [[0.0, 0.5, 0.5, 2.0], [0.0, 1.5, 1.0, 2.0], [0.0], [[0.0, 2.0]]])
    @pytest.mark.parametrize("solve", [solve_euler, solve_picard])
    def test_grids_that_are_not_strictly_increasing(self, solve, grid):
        with pytest.raises(ConfigurationError, match="grid must be strictly increasing"):
            solve(impulsive_problem(), np.array(grid))

    @pytest.mark.parametrize("shape", [(4, 1), (5, 2), (5,)])
    def test_an_initial_iterate_of_the_wrong_shape(self, shape):
        p = impulsive_problem()
        with pytest.raises(ConfigurationError, match=r"initial iterate must have shape \(5, 1\)"):
            solve_picard(p, build_grid(p, n_steps=4), initial=np.ones(shape))

    @pytest.mark.parametrize("run", [
        solve_euler, solve_picard,
        lambda p, grid: residual(p, SolutionTrace(grid, np.ones((4, 1)), np.ones((4, 1)), "euler")),
    ], ids=["euler", "picard", "residual"])
    def test_a_grid_that_leaves_a_window(self, run):
        with pytest.raises(WindowDomainError, match=r"t=2.5 outside the working window \[0.0, 2.0\)"):
            run(impulsive_problem(), np.array([0.0, 1.0, 2.5, 3.0]))

    def test_an_initial_trace_on_another_grid_of_the_same_size(self):
        p = impulsive_problem()
        grid, other = build_grid(p, n_steps=4), build_grid(p, sigma=1.6, n_steps=3)
        assert other.shape == grid.shape and not np.array_equal(other, grid)
        with pytest.raises(ConfigurationError, match="initial trace lives on a different grid"):
            solve_picard(p, grid, initial=solve_euler(p, other))
        # a trace on the same grid starts it, and so do any grid values
        for initial in (solve_euler(p, grid), solve_euler(p, other).values):
            assert solve_picard(p, grid, initial=initial).n_iterations >= 1

    def test_sup_distance_across_grids(self):
        p = impulsive_problem()
        a = solve_euler(p, build_grid(p, n_steps=4))
        for n_steps in (4, 8):
            b = solve_euler(p, build_grid(p, sigma=1.5, n_steps=n_steps))
            with pytest.raises(ConfigurationError, match="traces live on different grids"):
                a.sup_distance(b)

    def test_a_certificate_needs_a_modulus(self):
        with pytest.raises(ConfigurationError, match="uniqueness_certificate needs a declared modulus"):
            uniqueness_certificate(impulsive_problem())

    @pytest.mark.parametrize("bounds", [[], [lambda t: 1.0] * 2])
    def test_one_domination_bound_per_component(self, bounds):
        with pytest.raises(ConfigurationError, match=f"need 1 domination bounds, got {len(bounds)}"):
            caratheodory_bound_check(impulsive_problem(), 1.0, bounds)


class TestGridAtoms:
    def test_grid_missing_an_atom_is_refused(self):
        # x' = x with a unit jump at 1: a grid without t = 1 used to drop the
        # impulse and return 7.37 instead of 2e^2 with a small residual
        p = impulsive_problem()
        grid = np.linspace(0.0, 2.0, 1000)
        for run in (solve_euler, solve_picard):
            with pytest.raises(ConfigurationError, match=r"atom of derivators\[0\] at t=1\.0"):
                run(p, grid)

    def test_atoms_outside_the_grid_span_are_ignored(self):
        p = impulsive_problem()
        tr = solve_euler(p, np.linspace(0.0, 1.0, 101))  # the atom at 1 is the end
        assert tr.final[0] == pytest.approx(math.e, rel=1e-2)

    def test_residual_refuses_the_grid_too(self):
        p = impulsive_problem()
        other = IVProblem(0.0, 2.0, [1.0], [Derivator.identity((0.0, 2.0))],
                          [lambda t, x: x[0]])
        tr = solve_euler(other, np.linspace(0.0, 2.0, 1000))
        with pytest.raises(ConfigurationError):
            residual(p, tr)


class TestEuler:
    def test_zero_rhs_stays_constant(self):
        p = impulsive_problem()
        p = IVProblem(0.0, 2.0, [3.0], p.derivators, [lambda t, x: 0.0])
        tr = solve_euler(p, build_grid(p, n_steps=50))
        assert np.all(tr.values == 3.0)
        assert np.all(tr.right_values == 3.0)
        assert tr.residual[0] == 0.0

    def test_impulsive_exponential_oracle(self):
        p = impulsive_problem()
        tr = solve_euler(p, build_grid(p, n_steps=10_000))
        exact = 2.0 * math.e ** 2
        assert abs(tr.final[0] - exact) / exact <= 5e-3
        # interior checks against the piecewise closed form
        k = int(np.searchsorted(tr.grid, 1.0))
        assert tr.grid[k] == 1.0
        assert tr.values[k, 0] == pytest.approx(math.e, rel=2e-3)
        assert tr.right_values[k, 0] == pytest.approx(2 * math.e, rel=2e-3)

    def test_impulse_relation_is_exact(self):
        p = impulsive_problem()
        tr = solve_euler(p, build_grid(p, n_steps=64))
        k = int(np.searchsorted(tr.grid, 1.0))
        x = tr.values[k, 0]
        assert tr.right_values[k, 0] == x + x * 1.0

    def test_rows_without_an_atom_keep_the_state_bit_for_bit(self):
        # adding the impulse f * 0.0 on a step without an atom would turn
        # the initial -0.0 into +0.0
        p = impulsive_problem()
        p = IVProblem(0.0, 2.0, [-0.0], p.derivators, [lambda t, x: 1.0])
        tr = solve_euler(p, build_grid(p, n_steps=8))
        plain = tr.grid != 1.0
        assert np.signbit(tr.right_values[0, 0])
        assert tr.right_values[plain].tobytes() == tr.values[plain].tobytes()

    def test_pure_jump_recursion_is_exact(self):
        g = Derivator((0.0, 3.0), slopes=[0.0], jumps=[(1.0, 0.5), (2.0, 0.25)])
        p = IVProblem(0.0, 3.0, [2.0], [g], [lambda t, x: x[0]])
        tr = solve_euler(p, build_grid(p, n_steps=9))
        assert tr.final[0] == 2.0 * 1.5 * 1.25
        assert tr.residual[0] <= 1e-12

    def test_pure_jump_any_rhs_matches_manual_recursion(self, rng):
        pts = np.sort(rng.uniform(0.1, 0.9, size=3))
        sizes = rng.uniform(0.1, 1.0, size=3)
        g = Derivator((0.0, 1.0), slopes=[0.0], jumps=list(zip(pts, sizes)))
        f = lambda t, x: math.sin(x[0]) + t
        p = IVProblem(0.0, 1.0, [0.3], [g], [f])
        tr = solve_euler(p, build_grid(p, n_steps=17))
        x = 0.3
        for d, delta in zip(pts, sizes):
            x = x + f(d, [x]) * delta
        assert tr.final[0] == pytest.approx(x, abs=1e-15)
        assert tr.residual[0] <= 1e-12

    def test_classical_limit_against_reference(self):
        g = Derivator.identity((0.0, 1.0))
        f = lambda t, x: math.cos(3.0 * t) * x[0] - 0.5 * x[0] ** 2 / (1 + x[0] ** 2)
        p = IVProblem(0.0, 1.0, [1.0], [g], [f])
        tr = solve_euler(p, build_grid(p, n_steps=20_000))
        ref = solve_ivp(
            lambda t, y: [f(t, y)], (0.0, 1.0), [1.0],
            rtol=1e-12, atol=1e-12, dense_output=True,
        )
        sampled = ref.sol(tr.grid)[0]
        assert np.max(np.abs(tr.values[:, 0] - sampled)) <= 1e-4

    def test_ball_exit_raises_with_time(self):
        p = impulsive_problem(ball_radius=2.0)  # e^t - 1 crosses 2 before t=1.1
        with pytest.raises(DomainExitError) as exc:
            solve_euler(p, build_grid(p, n_steps=400))
        assert exc.value.time is not None
        assert 1.0 <= exc.value.time <= 1.3

    def test_ball_exit_in_the_impulse_reports_the_atom(self):
        # x(1) - x0 = e - 1 is inside radius 2; the impulse doubles x(1) and
        # leaves: the error names the atom and the post-jump state
        p = impulsive_problem(ball_radius=2.0)
        grid = build_grid(p, n_steps=400)
        free = solve_euler(impulsive_problem(), grid)
        k = int(np.searchsorted(grid, 1.0))
        assert np.max(np.abs(free.values[: k + 1] - 1.0)) <= 2.0
        with pytest.raises(DomainExitError) as exc:
            solve_euler(p, grid)
        assert type(exc.value.time) is float and exc.value.time == 1.0
        assert type(exc.value.state) is np.ndarray
        assert np.array_equal(exc.value.state, free.right_values[k])

    def test_ball_exit_in_the_continuous_step(self):
        # e^t - 1 reaches 1.5 at t = log(2.5) < 1, before the atom
        p = impulsive_problem(ball_radius=1.5)
        grid = build_grid(p, n_steps=400)
        free = solve_euler(impulsive_problem(), grid)
        k = int(np.flatnonzero(np.abs(free.values[:, 0] - 1.0) > 1.5)[0])
        with pytest.raises(DomainExitError) as exc:
            solve_euler(p, grid)
        assert type(exc.value.time) is float and exc.value.time == grid[k] < 1.0
        assert type(exc.value.state) is np.ndarray
        assert np.array_equal(exc.value.state, free.values[k])


def _dense_jumps(problem, grid):
    """The jump of each component at each grid point, ``(N+1, n)``, the closing
    point none: a dense table from ``Derivator.jump``, independent of how
    ``_GridData`` finds its atom rows."""
    deltas = np.zeros((grid.size, problem.n))
    for i, g in enumerate(problem.derivators):
        deltas[:-1, i] = g.jump(grid[:-1])
    return deltas


def _ndarray_euler(problem, grid):
    """The Euler step loop on ndarray states, as ``solve_euler`` ran it before
    its steps moved to Python floats; returns values, right values, residual."""
    data = _GridData(problem, grid)
    deltas = _dense_jumps(problem, data.grid)
    N, n = data.n_cells, problem.n
    values = np.empty((N + 1, n))
    rights = np.empty((N + 1, n))
    values[0] = problem.x0
    x = problem.x0.copy()
    for k in range(N):
        t = data.grid[k]
        fx = np.array([float(f(t, x)) for f in problem.rhs])
        y = x + fx * deltas[k]
        if np.any(deltas[k] > 0):
            _check_ball(problem, y, t)
            f_plus = np.array([float(f(t, y)) for f in problem.rhs])
        else:
            f_plus = fx
        rights[k] = y
        x = y + f_plus * data.cont_inc[k]
        _check_ball(problem, x, data.grid[k + 1])
        values[k + 1] = x
    rights[N] = values[N]
    mapped = data.integral_map(values, rights, data.impulses(values)[1])
    return values, rights, np.max(np.abs(values - mapped), axis=0)


def _float_euler(problem, grid):
    """The Euler step loop on Python floats, one ``eval_rhs`` call per state, as
    ``solve_euler`` ran it before its loop was emitted per problem; returns
    values and right values."""
    data = _GridData(problem, grid)
    ts = data.grid.tolist()
    x = problem._center
    values, rights = [x], []
    dense = _dense_jumps(problem, data.grid)
    jumps_at = np.any(dense > 0, axis=1).tolist()
    deltas, incs = zip(*dense.T.tolist()), zip(*data.cont_inc.T.tolist())
    for t, t_next, delta, inc, jumps in zip(ts, ts[1:], deltas, incs, jumps_at):
        fx = problem.eval_rhs(t, x)
        if jumps:
            x = tuple(map(add, x, map(mul, fx, delta)))  # impulse with the pre-jump state
            _check_ball(problem, x, t)
            fx = problem.eval_rhs(t, x)
        rights.append(x)
        x = tuple(map(add, x, map(mul, fx, inc)))
        _check_ball(problem, x, t_next)
        values.append(x)
    rights.append(x)
    return np.array(values), np.array(rights)


def _random_system(rng, n):
    """n components on [0, 1]: every g_i jumps at one shared atom and at one
    atom of its own, g_1 has a flat segment, g_n (n > 1) is pure-jump, the
    last rhs is an ``expr`` and the ball is never left."""
    shared = (float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.1, 0.5)))
    gs = []
    for i in range(n):
        slopes = rng.uniform(0.2, 2.0, 4)
        if i == 0:
            slopes[rng.integers(0, 4)] = 0.0
        if i == n - 1 and n > 1:
            slopes[:] = 0.0
        own = (float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.4)))
        cuts = np.sort(rng.uniform(0.0, 1.0, 3)).tolist()
        gs.append(Derivator((0.0, 1.0), breakpoints=[0.0, *cuts, 1.0], slopes=slopes,
                            jumps=[shared, own]))
    A = rng.uniform(-1.0, 1.0, (n, n)).tolist()
    b, c = rng.uniform(-1.0, 1.0, n).tolist(), rng.uniform(0.5, 3.0, n).tolist()

    def rhs(i):
        def f(t, x):
            nxt = x[(i + 1) % n]
            linear = sum(A[i][j] * x[j] for j in range(n))
            return b[i] * math.sin(c[i] * t) + linear - 0.1 * x[i] * x[i] / (1.0 + nxt * nxt)
        return f

    fs = [rhs(i) for i in range(n - 1)]
    fs.append(ExprFunction(parse(f"0.5*sin(3*t)*x{n} - 0.25*x1 + exp(-t)", n)))
    return IVProblem(0.0, 1.0, rng.uniform(-1.0, 1.0, n), gs, fs, ball_radius=1e6)


class TestFloatStepLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_the_ndarray_step_loop(self, seed):
        rng = np.random.default_rng([seed, 8])
        p = _random_system(rng, n=1 + seed % 3)
        grid = build_grid(p, n_steps=int(rng.integers(20, 300)))
        tr = solve_euler(p, grid)
        values, rights, res = _ndarray_euler(p, grid)
        assert np.array_equal(tr.values, values)
        assert np.array_equal(tr.right_values, rights)
        assert np.array_equal(tr.residual, res)

    def test_every_scalar_rhs_call_gets_a_float_and_a_tuple(self):
        seen = []

        def recording(f):
            def g(t, x):
                seen.append((type(t), type(x)))
                return f(t, x)
            return g

        g1 = Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 1.0)])
        g2 = Derivator((0.0, 2.0), slopes=[0.5], jumps=[(1.0, 0.5), (1.5, 0.25)])
        rhs = [recording(lambda t, x: 0.5 * x[0]), recording(lambda t, x: x[0] - x[1])]
        grid = build_grid(IVProblem(0.0, 2.0, [1.0, 0.5], [g1, g2], rhs), n_steps=16)
        phases = [
            lambda p: solve_euler(p, grid, compute_residual=False),
            lambda p: solve_euler(p, grid),
            lambda p: solve_picard(p, grid),
            lambda p: residual(p, solve_euler(p, grid, compute_residual=False)),
            lambda p: uniqueness_certificate(p, n_samples=20),
            lambda p: caratheodory_bound_check(p, 1.0, lambda t: 1e3, n_samples=20),
            lambda p: horizon_for_ball(p),
            lambda p: apriori_bound(p),
        ]
        for phase in phases:
            # a fresh problem per phase: both growth bounds read one set of
            # tables per problem, so the second would call no rhs
            p = IVProblem(0.0, 2.0, [1.0, 0.5], [g1, g2], rhs, ball_radius=50.0, modulus=LINEAR)
            seen.clear()
            phase(p)
            assert seen and set(seen) == {(float, tuple)}

    def test_grid_quadrature_is_built_only_for_the_residual(self, monkeypatch):
        built = []
        real = solver._gl_nodes
        monkeypatch.setattr(solver, "_gl_nodes", lambda *a: built.append(a) or real(*a))
        p = impulsive_problem()
        grid = build_grid(p, n_steps=16)
        solve_euler(p, grid, compute_residual=False)
        assert built == []
        solve_euler(p, grid)
        assert len(built) == p.n
        built.clear()
        tr = solve_picard(p, grid)  # one build for all its iterations
        assert tr.n_iterations > 1 and len(built) == p.n


def _euler_outcome(solve, problem, grid):
    """The bits of the values and right values, or everything the error carries."""
    try:
        values, rights = solve(problem, grid)
    except StieltjesError as exc:
        state = getattr(exc, "state", None)
        return ("raised", type(exc), str(exc), getattr(exc, "offset", None),
                getattr(exc, "time", None), None if state is None else state.tobytes())
    return ("value", values.tobytes(), rights.tobytes())


def _emitted(problem, grid):
    trace = solve_euler(problem, grid, compute_residual=False)
    return trace.values, trace.right_values


def _same_as_the_reference(problem, grid):
    emitted = _euler_outcome(_emitted, problem, grid)
    assert emitted == _euler_outcome(_float_euler, problem, grid)
    return emitted


def _expr(src, n):
    return ExprFunction(parse(src, n), src)


def _omega_k_problems(**kw):
    cls = TestBatchedPathMatchesScalar
    return _expr_and_lambda_problems(cls.SOURCES, cls.LAMBDAS, **kw)


class TestEmittedStepLoop:
    """``solve_euler``'s emitted loop against the float loop it replaced."""

    # radius 2 is left in the impulse at the atom t = 1, radius 1.5 before it
    @pytest.mark.parametrize("radius, in_impulse", [(2.0, True), (1.5, False)])
    @pytest.mark.parametrize("as_expr", [True, False])
    def test_domain_exit_in_the_impulse_and_in_the_continuous_step(self, radius, in_impulse, as_expr):
        g = Derivator.identity((0.0, 2.0)).with_jumps([(1.0, 1.0)])
        rhs = _expr("x1", 1) if as_expr else (lambda t, x: x[0])
        p = IVProblem(0.0, 2.0, [1.0], [g], [rhs], ball_radius=radius)
        outcome = _same_as_the_reference(p, build_grid(p, n_steps=400))
        assert outcome[:2] == ("raised", DomainExitError)
        assert (outcome[4] == 1.0) == in_impulse

    @pytest.mark.parametrize("g", [
        Derivator((0.0, 1.0), slopes=[1.0], jumps=[(0.5, 1e300)]),  # overflows in the impulse
        Derivator((0.0, 1.0), slopes=[1e300]),  # in a continuous sub-step
    ])
    def test_a_state_overflowing_to_inf_fails_at_the_next_rhs(self, g):
        rhs = [_expr("x1 + 1e300", 2), lambda t, x: math.cos(x[1])]
        p = IVProblem(0.0, 1.0, [1.0, 0.5], [g, Derivator.identity((0.0, 1.0))], rhs)
        outcome = _same_as_the_reference(p, build_grid(p, n_steps=8))
        assert outcome[:2] == ("raised", ExprDomainError) and outcome[3] == 0
        assert outcome[2].startswith("non-finite input x1 = inf")

    # each operation maps the non-finite state to a finite value, so that only
    # the check of its operand sees it; the sign of the 1e300 sends x1 to
    # +inf or -inf, the value that the operation hides.  math.sin and math.cos
    # raise ValueError at inf instead.
    @pytest.mark.parametrize("src, sign", [
        ("exp(-x1)", 1), ("1/x1", 1), ("x1^0", -1), ("min(x1, 1)", 1), ("max(1, x1)", -1),
        ("sign(x1)", 1), ("heaviside(x1)", -1), ("omega_k(1, abs(x1))", 1),
        ("sin(x1)", 1), ("cos(x1)", -1),
    ])
    @pytest.mark.parametrize("in_impulse", [True, False])
    def test_a_hidden_non_finite_state_fails_as_the_float_loop_does(self, src, sign, in_impulse):
        g = (Derivator((0.0, 1.0), slopes=[1.0], jumps=[(0.5, 1e300)]) if in_impulse
             else Derivator((0.0, 1.0), slopes=[1e300]))
        p = IVProblem(0.0, 1.0, [1.0], [g], [_expr(f"{src} + {sign}e300", 1)])
        outcome = _same_as_the_reference(p, build_grid(p, n_steps=8))
        assert outcome[:2] == ("raised", ExprDomainError) and outcome[3] == src.index("x1")
        assert outcome[2].startswith(f"non-finite input x1 = {'-' if sign < 0 else ''}inf")

    def test_the_euler_file_rhs_checks_what_can_hide_a_non_finite_value(self):
        # euler-file's two rhs: each evaluation checked 1 + 10 values (every
        # input and every value that can overflow) and now checks 1 + 2 (the
        # operand of exp and each result); the loop evaluates both twice
        g = Derivator.identity((0.0, 1.0)).with_jumps([(0.5, 0.1)])
        p = IVProblem(0.0, 1.0, [1.0, 0.5], [g, g],
                      [_expr("x1", 2), _expr("0.5*sin(3*t)*x2 - 0.25*x1 + exp(-t)", 2)])
        lines = solver._euler_source(p).splitlines()
        checks = sum(line.strip().startswith("if ") and "!= 0.0" in line for line in lines)
        calls = sum("isfinite" in line for line in lines)  # reached only after a failed check
        assert (checks, calls) == (2 * 3, 2 * 2)
        assert _same_as_the_reference(p, build_grid(p, n_steps=50))[0] == "value"

    def test_the_error_of_the_handed_call_is_raised_once(self):
        # omega_k(4, .) overflows double precision on every call: the inline
        # statements raise it, and the call raises it again, unchained
        p = IVProblem(0.0, 1.0, [1.0], [Derivator.identity((0.0, 1.0))], [_expr("omega_k(4, abs(x1))", 1)])
        grid = build_grid(p, n_steps=4)
        outcome = _same_as_the_reference(p, grid)
        assert outcome[:3] == ("raised", ModulusOverflowError,
                               "exp_iter(4, 1.0) overflows double precision at stage 4")
        with pytest.raises(ModulusOverflowError) as info:
            solve_euler(p, grid, compute_residual=False)
        assert info.value.__context__ is None and info.value.__cause__ is None

    def test_a_callable_returning_nan_fails_with_the_same_error(self):
        g = Derivator((0.0, 1.0), slopes=[1.0], jumps=[(0.5, 0.2)])
        rhs = [_expr("sin(x2)", 2), lambda t, x: math.nan if t > 0.5 else -x[0]]
        p = IVProblem(0.0, 1.0, [0.3, -0.2], [g, Derivator.identity((0.0, 1.0))], rhs)
        outcome = _same_as_the_reference(p, build_grid(p, n_steps=16))
        assert outcome[:2] == ("raised", SolverError)
        assert outcome[2].startswith("rhs component 1 returned nan at t=0.5625")

    def test_a_tree_reading_past_the_state_fails_as_its_call_does(self):
        g = Derivator.identity((0.0, 1.0))
        p = IVProblem(0.0, 1.0, [1.0, 2.0], [g, g], [_expr("x1", 3), _expr("t + x3", 3)])
        outcome = _same_as_the_reference(p, build_grid(p, n_steps=4))
        assert outcome[:2] == ("raised", ExprDomainError) and outcome[3] == 4
        assert outcome[2].startswith("state vector too short for x3")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mixed_expr_and_plain_rhs(self, n):
        """Random trees, each an ``ExprFunction`` written inline or a plain
        callable around one; values, -0.0 and errors all match."""
        rng = np.random.default_rng([n, 13])
        for _ in range(8):
            p = _random_system(rng, n)
            rhs = []
            for i in range(n):
                f = _expr(random_source(rng, n, 3), n)
                rhs.append(f if rng.random() < 0.6 else (lambda t, x, f=f: f(t, x)))
            x0 = p.x0.copy()
            x0[rng.random(n) < 0.3] = -0.0
            ball = float(rng.choice([1e6, 1.0]))
            p = dataclasses.replace(p, x0=x0, rhs=rhs, ball_radius=ball)
            _same_as_the_reference(p, build_grid(p, n_steps=int(rng.integers(20, 120))))

    def test_an_omega_k_rhs(self):
        p, _ = _omega_k_problems(ball_radius=0.5)
        outcome = _same_as_the_reference(p, build_grid(p, n_steps=300))
        assert outcome[0] == "value"

    def test_the_loop_is_compiled_once_per_problem(self, monkeypatch):
        emitted = []
        real = solver._euler_source
        monkeypatch.setattr(solver, "_euler_source", lambda p: emitted.append(p) or real(p))
        p, _ = _omega_k_problems()
        grid = build_grid(p, n_steps=50)
        residual(p, solve_picard(p, grid))
        assert emitted == []  # only solve_euler compiles it
        solve_euler(p, grid)
        solve_euler(p, build_grid(p, n_steps=20), compute_residual=False)
        assert len(emitted) == 1 and emitted[0] is p
        solve_euler(dataclasses.replace(p), grid)
        assert len(emitted) == 2


class TestPicard:
    def test_zero_rhs_converges_immediately(self):
        g = Derivator.identity((0.0, 1.0))
        p = IVProblem(0.0, 1.0, [4.0], [g], [lambda t, x: 0.0])
        tr = solve_picard(p, build_grid(p, n_steps=16), tol=1e-12)
        assert tr.n_iterations == 1
        assert np.all(tr.values == 4.0)

    def test_classical_exponential(self):
        p = classical_problem()
        tr = solve_picard(p, build_grid(p, n_steps=2000), tol=1e-10)
        assert abs(tr.final[0] - math.e) <= 1e-4

    def test_agrees_with_euler_on_shared_grid(self):
        p = impulsive_problem()
        grid = build_grid(p, n_steps=4000)
        te = solve_euler(p, grid)
        tp = solve_picard(p, grid, tol=1e-10)
        assert te.sup_distance(tp) <= 1e-2
        exact = 2.0 * math.e ** 2
        assert abs(tp.final[0] - exact) / exact <= 1e-3

    def test_impulse_relation_exact_at_acceptance(self):
        p = impulsive_problem()
        tr = solve_picard(p, build_grid(p, n_steps=512), tol=1e-10)
        k = int(np.searchsorted(tr.grid, 1.0))
        x = tr.values[k, 0]
        assert tr.right_values[k, 0] == x + x * 1.0

    def test_non_convergence_error(self):
        p = impulsive_problem()
        with pytest.raises(NonConvergenceError) as exc:
            solve_picard(p, build_grid(p, n_steps=128), tol=1e-14, max_iter=2)
        assert exc.value.last_change is not None

    @pytest.mark.parametrize("kw", [
        {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0},
        {"max_iter": 0}, {"max_iter": 2.5},
        {"max_iter": True}, {"tol": "1e-10"},  # a bool is no count, and a string no number
    ])
    def test_bad_tol_or_max_iter_is_refused(self, kw):
        # tol=nan used to run all iterations and max_iter=0 to raise a raw TypeError
        p = impulsive_problem()
        with pytest.raises(ConfigurationError, match=next(iter(kw))):
            solve_picard(p, build_grid(p, n_steps=8), **kw)

    def test_warm_start_independence(self):
        # certified-unique problem: the fixed point does not depend on the
        # initial iterate (x0-constant vs Euler warm start)
        p = impulsive_problem()
        grid = build_grid(p, n_steps=1000)
        tol = 1e-11
        cold = solve_picard(p, grid, tol=tol)
        warm = solve_picard(p, grid, tol=tol, initial=solve_euler(p, grid))
        assert cold.sup_distance(warm) <= 10 * tol

    # x' = x dg, x0 = 1, g(t) = t with a unit jump at t = 1, on the grid
    # 0, 0.5, ..., 2: the first iterate is 1 + t up to the atom, where the
    # pre-jump state is 2 and the post-jump state 4.  Radius 0.9 is left at
    # the atom before the jump, radius 1.5 only after it.
    @pytest.mark.parametrize("radius, post_jump", [(0.9, False), (1.5, True)])
    def test_ball_exit_reports_the_first_row_outside(self, radius, post_jump):
        p = impulsive_problem(ball_radius=radius)
        grid = build_grid(p, n_steps=4)
        data = _GridData(p, grid)
        start = np.tile(p.x0, (grid.size, 1))
        first = data.integral_map(start, *data.impulses(start))
        rights, _ = data.impulses(first)
        k = int(np.searchsorted(grid, 1.0))
        assert np.all(np.abs(first[:k] - 1.0) <= 0.5) and np.all(rights[:k] == first[:k])
        assert first[k, 0] == pytest.approx(2.0) and rights[k, 0] == pytest.approx(4.0)
        with pytest.raises(DomainExitError) as exc:
            solve_picard(p, grid)
        assert type(exc.value.time) is float and exc.value.time == 1.0
        assert np.array_equal(exc.value.state, (rights if post_jump else first)[k])

    def test_ball_exit_names_the_row_when_a_later_component_leaves(self):
        # the first iterate is x1 = t / 4, x2 = t: x2 leaves radius 0.5 first,
        # at row 3 (t = 0.75), whose entry in the flattened rows is the 8th
        g = Derivator.identity((0.0, 2.0))
        p = IVProblem(0.0, 2.0, [0.0, 0.0], [g, g], [lambda t, x: 0.25, lambda t, x: 1.0],
                      ball_radius=0.5)
        with pytest.raises(DomainExitError) as exc:
            solve_picard(p, build_grid(p, n_steps=8))
        assert exc.value.time == 0.75 and np.array_equal(exc.value.state, [0.1875, 0.75])

    def test_atom_rhs_is_evaluated_once_per_iterate(self):
        # the impulses and the next map share one rhs value per atom: one
        # call for the initial iterate and one for each accepted iterate
        at_atom = []

        def f(t, x):
            if t == 1.0:
                at_atom.append(float(x[0]))
            return x[0]

        p = impulsive_problem()
        p = IVProblem(p.t0, p.horizon, p.x0, p.derivators, [f])
        tr = solve_picard(p, build_grid(p, n_steps=8))
        assert len(at_atom) == tr.n_iterations + 1
        k = int(np.searchsorted(tr.grid, 1.0))
        assert at_atom[-1] == tr.values[k, 0]


class TestResidual:
    def test_zero_rhs_zero_residual(self):
        g = Derivator.identity((0.0, 1.0))
        p = IVProblem(0.0, 1.0, [1.0], [g], [lambda t, x: 0.0])
        tr = solve_euler(p, build_grid(p, n_steps=32))
        assert residual(p, tr)[0] == 0.0

    def test_the_euler_residual_is_that_of_residual(self, rng):
        for n in (1, 2, 3):
            p = _random_system(rng, n)
            trace = solve_euler(p, build_grid(p, n_steps=200))
            assert trace.residual.tobytes() == residual(p, trace).tobytes()

    def test_euler_residual_shrinks_with_refinement(self):
        p = impulsive_problem()
        r1 = solve_euler(p, build_grid(p, n_steps=500)).residual[0]
        r2 = solve_euler(p, build_grid(p, n_steps=1000)).residual[0]
        assert r2 <= r1 / 1.5

    def test_cross_method_distance_shrinks_with_refinement(self):
        p = impulsive_problem()
        dists = []
        for n in (250, 500):
            grid = build_grid(p, n_steps=n)
            dists.append(solve_euler(p, grid).sup_distance(solve_picard(p, grid, tol=1e-11)))
        assert dists[1] <= dists[0] / 1.5


class TestComponentDecoupling:
    def test_decoupled_component_is_bit_identical(self):
        # f_1 reads only x_1; changing slopes and jump sizes (not locations)
        # of g_2 keeps the grid identical, so the x_1 column cannot move
        jump2 = (1.3, 0.7)
        g1 = Derivator.identity((0.0, 2.0)).with_jumps([(0.5, 0.25)])
        g2a = Derivator.identity((0.0, 2.0)).with_jumps([jump2])
        g2b = Derivator((0.0, 2.0), breakpoints=[0.0, 0.8, 2.0], slopes=[2.0, 0.5],
                        jumps=[(1.3, 2.0)])
        rhs = [lambda t, x: math.sin(x[0]), lambda t, x: x[0] + x[1]]
        pa = IVProblem(0.0, 2.0, [1.0, 0.0], [g1, g2a], rhs)
        pb = IVProblem(0.0, 2.0, [1.0, 0.0], [g1, g2b], rhs)
        grid_a = build_grid(pa, n_steps=333)
        grid_b = build_grid(pb, n_steps=333)
        assert np.array_equal(grid_a, grid_b)
        for solver in (solve_euler, lambda p, g: solve_picard(p, g, tol=1e-10)):
            ta = solver(pa, grid_a)
            tb = solver(pb, grid_b)
            assert np.array_equal(ta.values[:, 0], tb.values[:, 0])
            assert np.array_equal(ta.right_values[:, 0], tb.right_values[:, 0])


class TestHorizonForBall:
    def test_zero_rhs_full_horizon(self):
        # omega(R) * measure = 0.1 * 3 < R = 1: slack at the full horizon
        small = OsgoodModulus(evaluator=lambda s: 0.1 * s, name="0.1s")
        p = impulsive_problem()
        p = IVProblem(0.0, 2.0, [1.0], p.derivators, [lambda t, x: 0.0],
                      ball_radius=1.0, modulus=small)
        assert horizon_for_ball(p) == pytest.approx(2.0)

    def test_tiny_ball_has_no_horizon(self):
        p = impulsive_problem(ball_radius=1e-9, modulus=LINEAR)
        with pytest.raises(NoCertifiedHorizonError):
            horizon_for_ball(p)

    def test_returned_sigma_satisfies_inequality(self):
        from stieltjes import integrate, sum_derivators

        p = impulsive_problem(ball_radius=10.0, modulus=LINEAR)
        sigma = horizon_for_ball(p)
        assert sigma > 0
        ghat = sum_derivators(p.derivators)
        weighted = integrate(ghat, lambda t: 1.0, 0.0, sigma)
        accumulated = integrate(p.derivators[0], lambda s: abs(1.0), 0.0, sigma)
        assert 10.0 * weighted + accumulated < 10.0

    def test_requires_declarations(self):
        with pytest.raises(ConfigurationError):
            horizon_for_ball(impulsive_problem())

    @pytest.mark.parametrize("modulus, value", [
        (lambda s: -s, r"-1\.0"), (lambda s: 0.0, r"0\.0"), (lambda s: math.nan, "nan"),
    ], ids=["negative", "zero", "nan"])
    def test_omega_at_the_radius_must_be_finite_and_positive(self, modulus, value):
        # omega = s gives sigma = 0.328125; these gave 0.984375, 0.484375 and
        # NoCertifiedHorizonError
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))], [lambda t, x: 2.0],
                      ball_radius=1.0, modulus=modulus)
        with pytest.raises(IntegrandError, match=rf"modulus returned {value} at s=1\.0$"):
            horizon_for_ball(p)


class TestAprioriBound:
    def test_zero_rhs_collapses(self):
        p = IVProblem(0.0, 2.0, [1.0], impulsive_problem().derivators,
                      [lambda t, x: 0.0], modulus=LINEAR)
        bound = apriori_bound(p)
        assert bound.zero_kappa
        tr = solve_euler(p, build_grid(p, n_steps=64))
        ok, worst = bound.check_trace(tr)
        assert ok

    def test_gronwall_shape_dominates_classical(self):
        p = IVProblem(0.0, 1.0, [1.0], [Derivator.identity((0.0, 1.0))],
                      [lambda t, x: x[0]], modulus=LINEAR)
        bound = apriori_bound(p)
        # kappa(t1) = |x0| * t1 = 1; bound(t) = kappa * e^(t - t0)
        for t in np.linspace(0.0, bound.t1, 20):
            expected = bound.kappa * math.exp(t)
            assert bound(float(t)) == pytest.approx(expected, rel=1e-6)
        tr = solve_picard(p, build_grid(p, n_steps=512), tol=1e-10)
        ok, worst = bound.check_trace(tr)
        assert ok, worst

    def test_impulsive_bound_holds_for_both_methods(self):
        p = impulsive_problem(modulus=LINEAR)
        bound = apriori_bound(p)
        grid = build_grid(p, n_steps=2000)
        for tr in (solve_euler(p, grid), solve_picard(p, grid, tol=1e-10)):
            ok, worst = bound.check_trace(tr)
            assert ok, worst

    def test_check_trace_equals_the_per_point_maximum(self):
        p = impulsive_problem(modulus=LINEAR)
        tr = solve_euler(p, build_grid(p, n_steps=500))
        full = apriori_bound(p)
        # a hand-made bound that the trace leaves: the worst point is t1
        linear = AprioriBound(t0=0.2, t1=1.3, kappa=1.0, bound=lambda t: 0.5 * t)
        for bound in (full, dataclasses.replace(full, t1=1.3), linear):
            ok, worst = bound.check_trace(tr)
            inside = [k for k, t in enumerate(tr.grid) if bound.t0 <= t <= bound.t1]
            ref = max(float(np.max(np.abs(tr.values[k] - tr.values[0])))
                      - bound(float(tr.grid[k])) for k in inside)
            assert worst == pytest.approx(ref, rel=1e-12)
            assert ok == (ref <= 1e-6)

    def test_needs_modulus(self):
        with pytest.raises(ConfigurationError):
            apriori_bound(impulsive_problem())

    def test_the_zero_bound_is_elementwise(self):
        p = IVProblem(0.0, 2.0, [1.0], impulsive_problem().derivators,
                      [lambda t, x: 0.0], modulus=LINEAR)
        bound = apriori_bound(p)
        ts = np.linspace(0.0, bound.t1, 6).reshape(2, 3)
        zeros = bound(ts)
        assert zeros.shape == (2, 3) and not zeros.any()
        assert type(bound(0.5)) is float and bound(0.5) == 0.0

    def test_a_plain_modulus_is_wrapped_once(self):
        # one OsgoodModulus per problem keeps one table of cells; a plain
        # lambda used to be wrapped, and its table built, on every call
        calls = 0

        def linear(s):
            nonlocal calls
            calls += 1
            return s

        p = IVProblem(0.0, 1.0, [1.0], [Derivator.identity((0.0, 1.0))], [lambda t, x: x[0]],
                      modulus=linear)
        apriori_bound(p)
        calls = 0
        apriori_bound(p)
        assert calls < 1_000
        assert isinstance(p.modulus, OsgoodModulus) and p.modulus.evaluator is linear

    def test_a_convergent_modulus_is_refused(self):
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))], [lambda t, x: x[0]],
                      modulus=OsgoodModulus(evaluator=math.sqrt))
        with pytest.raises(BoundInapplicableError,
                           match=r"not certified Osgood \(osgood_check: CONVERGENT\)"):
            apriori_bound(p)

    def test_a_weight_too_large_for_every_sub_horizon_is_refused(self):
        # Omega(kappa) plus the growth of h = 1e4 t passes the top of every
        # Omega view up to r = 1e120, on all 16 candidate horizons: 480 views,
        # which read one table of cells; the modulus s is batched
        linear = OsgoodModulus(evaluator=ExprFunction(parse("t", 0)), name="s")
        p = IVProblem(0.0, 1.0, [1.0], [Derivator.identity((0.0, 1.0))], [lambda t, x: x[0]],
                      modulus=linear, phi=lambda t: 1e4, ball_radius=1.0)
        with pytest.raises(BoundInapplicableError, match="failed on every tested sub-horizon"):
            apriori_bound(p)

    def test_the_same_refusal_samples_a_plain_modulus_under_2m_times(self):
        # the cells up to 1e120 once (about 130k samples), then each view's
        # nodes; a table per view took 49.7M samples
        calls = 0

        def linear(s):
            nonlocal calls
            calls += 1
            return s

        p = IVProblem(0.0, 1.0, [1.0], [Derivator.identity((0.0, 1.0))], [lambda t, x: x[0]],
                      modulus=OsgoodModulus(evaluator=linear, name="s"), phi=lambda t: 1e4,
                      ball_radius=1.0)
        with pytest.raises(BoundInapplicableError, match="failed on every tested sub-horizon"):
            apriori_bound(p)
        assert calls < 2_000_000

    @staticmethod
    def declaring(modulus, rhs=lambda t, x: x[0], x0=1.0, end=1.0):
        return IVProblem(0.0, end, [x0], [Derivator.identity((0.0, end))], [rhs],
                         modulus=OsgoodModulus(evaluator=modulus))

    def test_a_modulus_positive_at_zero_is_refused(self):
        with pytest.raises(BoundInapplicableError,
                           match=r"not certified Osgood \(osgood_check: CONVERGENT\)"):
            apriori_bound(self.declaring(lambda s: s + 1.0))

    def test_a_negative_modulus_is_named(self):
        with pytest.raises(IntegrandError, match=r"modulus returned -[0-9.e-]+ at s="):
            apriori_bound(self.declaring(lambda s: -s))

    def test_a_decreasing_modulus_is_refused(self):
        # 1.8 |sin(pi s)| is a modulus of 1 + 0.9 sin(2 pi x) for every pair,
        # and Osgood, but it dips at s = 1, where Bihari's bound stalled below
        # the trace (by 0.084 at t = 3); the Omega view names the first drop
        p = self.declaring(lambda s: 1.8 * abs(math.sin(math.pi * s)) + 1e-12 * s,
                           lambda t, x: 1.0 + 0.9 * math.sin(2.0 * math.pi * x[0]), 0.75, 3.0)
        with pytest.raises(ConfigurationError,
                           match=r"must be nondecreasing, but omega\(0\.48696[0-9]*\) = 1\.7984"):
            apriori_bound(p)

    def test_no_cell_of_1_over_omega_is_integrated_twice(self, monkeypatch):
        # apriori_bound and uniqueness_certificate read the modulus's one table
        # of cells: a second pair of calls integrates nothing, since the osgood
        # check's u0 = 1 is a cell edge and leaves no piece outside the cells
        from stieltjes import moduli

        integrated = []
        real = moduli._reciprocal_integral

        def spy(omega, lo, hi):
            integrated.extend((a, b) for a, b in zip(lo.tolist(), hi.tolist()) if a < b)
            return real(omega, lo, hi)

        monkeypatch.setattr(moduli, "_reciprocal_integral", spy)
        p = impulsive_problem(ball_radius=5.0, modulus=omega_k_modulus(1))
        pairs = []
        for _ in range(2):
            integrated.clear()
            apriori_bound(p)
            uniqueness_certificate(p, n_samples=100)
            pairs.append(list(integrated))
        assert len(pairs[0]) > 300 and len(set(pairs[0])) == len(pairs[0])
        assert pairs[1] == []

    def test_check_trace_holds_when_no_grid_point_is_inside(self):
        p = classical_problem()
        tr = solve_euler(p, build_grid(p, n_steps=4))  # grid 0, 0.25, ..., 1
        bound = AprioriBound(t0=0.3, t1=0.4, kappa=1.0,
                             bound=lambda t: pytest.fail("bound evaluated at no point"))
        assert bound.check_trace(tr) == (True, -math.inf)

    @staticmethod
    def weighted_problem(phi):
        g = Derivator.identity((0.0, 1.0)).with_jumps([(0.5, 0.2)])
        return IVProblem(0.0, 1.0, [1.0], [g], [lambda t, x: x[0]], modulus=LINEAR, phi=phi,
                         ball_radius=1.0)

    @pytest.mark.parametrize("bound, phi", [
        (apriori_bound, lambda t: -1.0), (apriori_bound, lambda t: math.cos(4.0 * t)),
        (horizon_for_ball, lambda t: -1.0), (horizon_for_ball, lambda t: math.cos(4.0 * t)),
    ], ids=["minus-one", "cos-4t", "horizon-minus-one", "horizon-cos-4t"])
    def test_a_negative_weight_is_refused(self, bound, phi):
        with pytest.raises(IntegrandError, match="nonnegative"):
            bound(self.weighted_problem(phi))

    @pytest.mark.parametrize("phi", [lambda t: t * t, lambda t: max(0.0, t - 0.5)],
                             ids=["t-squared", "ramp"])
    def test_a_weight_touching_zero_is_accepted(self, phi):
        bound = apriori_bound(self.weighted_problem(phi))
        assert bound.kappa > 0.0 and not bound.zero_kappa

    @pytest.mark.parametrize("bound", [apriori_bound, horizon_for_ball])
    def test_a_weight_negative_only_at_an_atom_at_t0_is_refused(self, bound):
        # the weighted measure of apriori_bound leaves that atom out
        g = Derivator.identity((-1.0, 1.0)).with_jumps([(0.0, 0.3)])
        p = IVProblem(0.0, 1.0, [1.0], [g], [lambda t, x: x[0]], modulus=LINEAR,
                      phi=lambda t: -1.0 if t == 0.0 else 1.0, ball_radius=1.0)
        with pytest.raises(IntegrandError, match=r"-1\.0 at t=0\.0; .* nonnegative"):
            bound(p)

    def test_the_weighted_measure_is_exact(self):
        # h(t) = integral of phi over [0, t) against t + 0.2 [t > 0.5]
        phi = lambda t: 1.0 + 0.3 * math.cos(t)
        bound = apriori_bound(self.weighted_problem(phi)).bound
        ts = np.random.default_rng(11).uniform(bound.a, bound.b, 1000)
        got = bound.h(ts) - bound.h(bound.a)
        expected = ts + 0.3 * np.sin(ts) + phi(0.5) * 0.2 * (ts > 0.5)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


class TestCandidateTables:
    """horizon_for_ball and apriori_bound read all candidates from one set of tables per problem."""

    @staticmethod
    def problem():
        # candidate ends are k/64: jumps at t0, on an end (0.5) and between
        # ends (0.3); smooth integrands that keep their sign
        g1 = Derivator((-1.0, 2.0), breakpoints=[-1.0, 0.25, 0.7, 2.0], slopes=[1.0, 0.5, 2.0])
        g1 = g1.with_jumps([(0.0, 0.2), (0.5, 0.3)])
        g2 = Derivator.identity((-1.0, 2.0)).with_jumps([(0.3, 0.1), (0.5, 0.05)])
        rhs = [lambda t, x: 1.0 + 0.5 * math.sin(3.0 * t) + 0.1 * x[1],
               lambda t, x: 0.3 + math.exp(-t) * x[0]]
        return IVProblem(0.0, 1.0, [0.5, 0.2], [g1, g2], rhs, ball_radius=10.0,
                         modulus=LINEAR, phi=lambda t: 1.0 + 0.3 * math.cos(t))

    def test_candidates_match_root_split_integrals(self):
        # every A_i at all 64 ends, g1's atom at t0 = 0 included, and the
        # weighted measure of horizon_for_ball at the same ends
        from stieltjes import integrate, sum_derivators

        p = self.problem()
        horizon_for_ball(p)
        apriori_bound(p)
        _, ends, at_t0, h, A = p._growth
        assert A.shape == (2, 64)
        for g, f, row in zip(p.derivators, p.rhs, A):
            expected = [root_split_integral(g, f, p._center, p.t0, t) for t in ends]
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0)
        expected = [integrate(sum_derivators(p.derivators), p.phi, p.t0, t) for t in ends]
        np.testing.assert_allclose(at_t0 + h.batch(ends), expected, rtol=1e-12, atol=0)

    def test_a_second_bound_call_samples_neither_phi_nor_a_rhs(self):
        calls = []

        def counted(f):
            return lambda *args: calls.append(f) or f(*args)

        base = self.problem()
        p = dataclasses.replace(base, phi=counted(base.phi), rhs=[counted(f) for f in base.rhs])
        sigma = horizon_for_ball(p)
        assert calls
        calls.clear()
        first, second = apriori_bound(p), apriori_bound(p)
        assert horizon_for_ball(p) == sigma
        assert calls == []
        assert (first.t1, first.kappa) == (second.t1, second.kappa)
        ts = np.linspace(p.t0, first.t1, 17)
        np.testing.assert_array_equal(first(ts), second(ts))

    def test_a_replaced_problem_gets_its_own_tables(self):
        p = self.problem()
        bound = apriori_bound(p)
        doubled = dataclasses.replace(p, phi=lambda t: 2.0 * p.phi(t))
        twice = apriori_bound(doubled)
        assert doubled._growth is not p._growth
        t = np.linspace(p.t0, min(bound.t1, twice.t1), 9)
        np.testing.assert_allclose(twice.bound.h(t), 2.0 * bound.bound.h(t), rtol=1e-14, atol=0)

    def test_integrands_are_not_sampled_past_the_horizon(self):
        # the window reaches 3, the problem only 1; phi and the rhs are NaN past 1
        late_nan = lambda t: math.nan if t > 1.0 else 1.0
        g = Derivator.identity((0.0, 3.0)).with_jumps([(0.5, 0.2), (2.0, 0.1)])
        p = IVProblem(0.0, 1.0, [1.0], [g], [lambda t, x: 0.1 * late_nan(t) * x[0]],
                      ball_radius=1.0, modulus=LINEAR, phi=late_nan)
        # (1 + 0.1) * (sigma + 0.2) < 1 first holds at sigma = 45/64
        assert horizon_for_ball(p) == 45 / 64
        bound = apriori_bound(p)
        assert bound.t1 == 1.0
        assert bound.kappa == pytest.approx(0.1 * 1.2, rel=1e-12)


class TestRhsAtX0Tables:
    """kappa of apriori_bound is max_i A_i, A_i the integral of |f_i(., x0)| against g_i."""

    @staticmethod
    def crossing_problem():
        # |f_1(t, x0)| = 0.98 + 0.5 sin(3t) and |f_2(t, x0)| = 0.05 + 2.5t cross
        # near t = 0.4; each keeps its sign, so its integral is smooth
        g1 = Derivator.identity((0.0, 1.0)).with_jumps([(0.4, 0.2)])
        g2 = Derivator((0.0, 1.0), breakpoints=[0.0, 0.6, 1.0], slopes=[0.5, 2.0],
                       jumps=[(0.7, 0.3)])
        rhs = [lambda t, x: 1.0 + 0.5 * math.sin(3.0 * t) + 0.1 * x[1],
               lambda t, x: -0.2 - 2.5 * t + 0.3 * x[0]]
        return IVProblem(0.0, 1.0, [0.5, -0.2], [g1, g2], rhs, modulus=LINEAR)

    def test_kappa_is_the_largest_component_integral(self):
        from stieltjes import integrate, sum_derivators

        p = self.crossing_problem()
        bound = apriori_bound(p)
        x0 = p._center
        parts = [root_split_integral(g, f, x0, p.t0, bound.t1)
                 for g, f in zip(p.derivators, p.rhs)]
        assert bound.kappa == pytest.approx(max(parts), rel=1e-12, abs=0.0)
        # the integral of max_i |f_i(., x0)| against the sum derivator dominates
        biggest = integrate(sum_derivators(p.derivators),
                            lambda s: max(abs(f(s, x0)) for f in p.rhs), p.t0, bound.t1)
        assert max(parts) < sum(parts) < biggest
        ok, worst = bound.check_trace(solve_picard(p, build_grid(p, n_steps=400), tol=1e-12))
        assert ok, worst

    def test_a_rhs_the_fit_cannot_resolve_is_refused(self):
        g = Derivator.identity((0.0, 1.0))
        p = IVProblem(0.0, 1.0, [0.0], [g], [lambda t, x: math.sin(1.0 / (t - 0.3173)) + x[0]],
                      modulus=LINEAR)
        with pytest.raises(IntegrandError, match="does not resolve"):
            apriori_bound(p)

    @staticmethod
    def one_component_problem(as_expr):
        g = Derivator((0.0, 1.0), breakpoints=[0.0, 0.5, 1.0], slopes=[1.0, 2.0],
                      jumps=[(0.3, 0.2)])
        f = _expr("cos(5*t) + 0.2*x1", 1) if as_expr else (
            lambda t, x: math.cos(5.0 * t) + 0.2 * x[0])
        return IVProblem(0.0, 1.0, [0.4], [g], [f], modulus=LINEAR)

    @pytest.mark.parametrize("as_expr", [False, True], ids=["lambda", "expr"])
    def test_every_end_matches_a_root_split_integral(self, as_expr):
        # |cos 5t + 0.08| kinks twice in [0, 1]; kappa is A_1 at every fourth
        # of the 64 ends, and the bound starts from it
        from stieltjes.moduli import bihari_bound

        p = self.one_component_problem(as_expr)
        (g,), (f,) = p.derivators, p.rhs
        bound = apriori_bound(p)
        _, ends, _, _, (A,) = p._growth
        expected = [root_split_integral(g, f, p._center, 0.0, t) for t in ends]
        np.testing.assert_allclose(A, expected, rtol=1e-12, atol=0)
        k = ends.tolist().index(bound.t1)
        assert k % 4 == 0 and bound.kappa == A[k]
        ts = np.linspace(0.0, bound.t1, 9)
        same = bihari_bound(A[k], bound.bound.h, 0.0, bound.t1, bound.transform)
        np.testing.assert_array_equal(bound(ts), same(ts))

    def test_kappa_is_close_to_a_fine_reference(self):
        from stieltjes import QuadratureConfig, integrate

        p = self.one_component_problem(as_expr=False)
        (g,), (f,) = p.derivators, p.rhs
        bound = apriori_bound(p)
        F = lambda s: f(s, p._center)
        # the two roots of cos 5t + 0.08 in [0, 1]
        roots = [brentq(F, 0.2, 0.4, xtol=1e-16), brentq(F, 0.8, 1.0, xtol=1e-16)]
        cuts = [p.t0, *[r for r in roots if r < bound.t1], bound.t1]
        fine = QuadratureConfig(order=16, panels=256)
        expected = sum(integrate(g, lambda s: abs(F(s)), lo, hi, fine)
                       for lo, hi in zip(cuts, cuts[1:]))
        assert bound.kappa == pytest.approx(expected, rel=1e-11, abs=0.0)


class TestConvergenceOrder:
    """Observed orders on x' = x dg with a unit jump at 1, where x(2-) = 2 e^2."""

    @pytest.mark.parametrize("run, low, high", [
        (lambda p, grid: solve_euler(p, grid, compute_residual=False), 0.95, 1.05),
        (lambda p, grid: solve_picard(p, grid, tol=1e-12), 1.9, 2.1),
    ], ids=["euler", "picard"])
    def test_observed_order(self, run, low, high):
        p = impulsive_problem()
        errors = [abs(run(p, build_grid(p, n_steps=n)).final[0] - 2.0 * math.e ** 2)
                  for n in (500, 1000, 2000)]
        for coarse, fine in zip(errors, errors[1:]):
            assert low <= math.log2(coarse / fine) <= high


class TestUniquenessCertificate:
    def test_lipschitz_is_osgood_unique(self):
        p = impulsive_problem(ball_radius=5.0, modulus=LINEAR)
        report = uniqueness_certificate(p, n_samples=5000)
        assert report.verdict == "OSGOOD-UNIQUE"
        assert report.sampled
        assert all(v == "DIVERGENT" for v in report.osgood_verdicts.values())

    def test_iterated_log_rhs_is_montel_tonelli_unique(self):
        # f_i(t, x) = phi(t) * omega_k(max-norm of x): the subadditivity of
        # omega_k makes the sampled inequality hold everywhere
        k = 2
        phi = lambda t: 1.0 + 0.5 * math.sin(t)
        g1 = Derivator.identity((0.0, 1.0)).with_jumps([(0.5, 0.3)])
        g2 = Derivator((0.0, 1.0), slopes=[0.0], jumps=[(0.25, 1.0)])
        rhs = [
            lambda t, x: phi(t) * float(omega_k(k, float(np.max(np.abs(x))))),
            lambda t, x: phi(t) * float(omega_k(k, float(np.max(np.abs(x))))),
        ]
        p = IVProblem(0.0, 1.0, [0.0, 0.0], [g1, g2], rhs,
                      ball_radius=1.0, modulus=omega_k_modulus(k), phi=phi)
        report = uniqueness_certificate(p, n_samples=5000)
        assert report.verdict == "MONTEL-TONELLI-UNIQUE"
        assert not report.violations

    def test_sqrt_rhs_with_linear_modulus_is_unverified(self):
        g = Derivator.identity((0.0, 1.0))
        f = lambda t, x: math.copysign(math.sqrt(abs(x[0])), x[0])
        p = IVProblem(0.0, 1.0, [0.0], [g], [f], ball_radius=1.0, modulus=LINEAR)
        report = uniqueness_certificate(p, n_samples=5000)
        assert report.verdict == "UNVERIFIED"
        assert report.violations

    def test_a_violation_below_1e_9_is_seen(self):
        # |f(x) - f(y)| = 2e-10 |x - y| exceeds 1e-10 |x - y| on every pair
        g = Derivator.identity((0.0, 1.0))
        p = IVProblem(0.0, 1.0, [0.0], [g], [lambda t, x: 2e-10 * x[0]], ball_radius=1.0,
                      modulus=OsgoodModulus(evaluator=lambda s: 1e-10 * s))
        report = uniqueness_certificate(p, n_samples=200)
        assert all(v == "DIVERGENT" for v in report.osgood_verdicts.values())
        assert report.verdict == "UNVERIFIED"
        assert report.violations

    @pytest.mark.parametrize("modulus, verdict", [
        (LINEAR, "DIVERGENT"), (OsgoodModulus(evaluator=math.sqrt), "CONVERGENT"),
    ], ids=["linear", "sqrt"])
    def test_one_osgood_check_serves_both_anchors(self, modulus, verdict, monkeypatch):
        anchors = []
        real = solver.osgood_check
        monkeypatch.setattr(solver, "osgood_check",
                            lambda omega, u0: anchors.append(u0) or real(omega, u0))
        report = uniqueness_certificate(impulsive_problem(ball_radius=5.0, modulus=modulus),
                                        n_samples=100)
        assert anchors == [1.0]
        assert list(report.osgood_verdicts.items()) == [(1.0, verdict), (0.01, verdict)]
        assert (report.verdict == "OSGOOD-UNIQUE") == (verdict == "DIVERGENT")

    def test_a_weight_that_fails_to_integrate_leaves_it_unverified_unsampled(self):
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))], [lambda t, x: x[0]],
                      ball_radius=1.0, modulus=LINEAR,
                      phi=lambda t: math.nan if t > 0.5 else 1.0)
        report = uniqueness_certificate(p, n_samples=100)
        assert report.verdict == "UNVERIFIED"
        assert (report.n_samples, report.violations, report.phi_integrals) == (0, [], [])

    def test_a_negative_weight_leaves_it_unverified_unsampled(self):
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))], [lambda t, x: x[0]],
                      ball_radius=1.0, modulus=LINEAR, phi=lambda t: -1.0)
        report = uniqueness_certificate(p, n_samples=100)
        assert report.verdict == "UNVERIFIED"
        assert (report.n_samples, report.violations, report.phi_integrals) == (0, [], [])

    def test_a_weight_refused_at_a_sample_raises_integrand_error(self):
        # NaN only at the first drawn time, which no quadrature node hits
        first = float(np.random.default_rng(0).uniform(0.0, 1.0, size=100)[0])
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))], [lambda t, x: x[0]],
                      ball_radius=1.0, modulus=LINEAR,
                      phi=lambda t: math.nan if t == first else 1.0)
        with pytest.raises(IntegrandError, match=rf"weight returned nan at t={first}; "):
            uniqueness_certificate(p, n_samples=100)

    @pytest.mark.parametrize("phi", [None, lambda t: 1.0 + 0.5 * t], ids=["none", "declared"])
    def test_phi_one_reads_the_measure_without_integrating(self, phi, monkeypatch):
        calls = []
        real = solver.integrate
        monkeypatch.setattr(solver, "integrate", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        g1 = Derivator((-1.0, 2.0), breakpoints=[-1.0, 0.7, 2.0], slopes=[0.5, 1.5],
                       jumps=[(0.0, 0.25), (1.0, 1.0), (1.5, 0.125)])
        g2 = Derivator((-1.0, 2.0), slopes=[0.0], jumps=[(0.5, 0.25), (1.5, 0.5)])
        p = IVProblem(0.0, 1.5, [1.0, 0.0], [g1, g2], [lambda t, x: x[0], lambda t, x: x[1]],
                      ball_radius=5.0, modulus=LINEAR, phi=phi)
        report = uniqueness_certificate(p, n_samples=100)
        assert report.verdict == ("OSGOOD-UNIQUE" if phi is None else "MONTEL-TONELLI-UNIQUE")
        if phi is None:
            # the atom at t0 counts and the one at t0 + horizon does not
            assert calls == []
            assert report.phi_integrals == pytest.approx([0.25 + 0.35 + 1.0 + 1.2, 0.25], rel=1e-15)
            assert all(type(v) is float for v in report.phi_integrals)
        else:
            assert [a[0] for a in calls] == [g1, g2]

    @pytest.mark.parametrize("n_samples", [0, -1, 2.5])
    def test_no_samples_is_refused(self, n_samples):
        # two solutions from x0 = 0; zero samples used to certify it OSGOOD-UNIQUE
        g = Derivator.identity((0.0, 1.0))
        f = lambda t, x: math.copysign(math.sqrt(abs(x[0])), x[0])
        p = IVProblem(0.0, 1.0, [0.0], [g], [f], ball_radius=1.0, modulus=LINEAR)
        with pytest.raises(ConfigurationError, match="n_samples"):
            uniqueness_certificate(p, n_samples=n_samples)


class TestCaratheodoryCheck:
    def test_bounded_rhs_passes(self):
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))],
                      [lambda t, x: math.sin(t + x[0])])
        report = caratheodory_bound_check(p, r=2.0, h_r=lambda t: 1.0)
        assert report.passed

    def test_zero_bound_fails_with_witness(self):
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))],
                      [lambda t, x: 1.0 + 0.0 * x[0]])
        report = caratheodory_bound_check(p, r=1.0, h_r=lambda t: 0.0)
        assert not report.passed
        assert report.violations

    def test_a_violation_below_1e_9_is_seen(self):
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))],
                      [lambda t, x: 1e-10 + 0.0 * x[0]])
        report = caratheodory_bound_check(p, r=1.0, h_r=lambda t: 0.0, n_samples=200)
        assert not report.passed
        assert len(report.violations) == 200

    @pytest.mark.parametrize("kw", [
        {"n_samples": 0}, {"n_samples": -1}, {"r": math.nan}, {"r": math.inf},
    ])
    def test_bad_radius_or_sample_count_is_refused(self, kw):
        # every sample violates this bound; zero samples used to pass it
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))],
                      [lambda t, x: 1.0 + 0.0 * x[0]])
        with pytest.raises(ConfigurationError, match=next(iter(kw))):
            caratheodory_bound_check(p, h_r=lambda t: 0.0, **{"r": 1.0, **kw})

    def test_monotone_modulus_bound_passes(self):
        # |phi(t) omega_k(|x|)| <= phi(t) omega_k(|x0| + r) on the ball
        k = 1
        phi = lambda t: 2.0 + math.cos(t)
        f = lambda t, x: phi(t) * float(omega_k(k, abs(x[0])))
        p = IVProblem(0.0, 1.0, [0.2], [Derivator.identity((0.0, 1.0))], [f])
        r = 0.5
        h_r = lambda t: phi(t) * float(omega_k(k, 0.2 + r))
        report = caratheodory_bound_check(p, r=r, h_r=h_r)
        assert report.passed


    @staticmethod
    def recording(name, value, calls):
        """A callable whose batch records (name, number of samples) and returns ``value``."""
        class Recorded:
            def __call__(self, *args):
                return value

            def batch(self, ts, xs=None):
                calls.append((name, ts.size))
                return np.full(ts.size, value)

        return Recorded()

    def test_samples_are_checked_in_blocks_rhs_then_bound(self):
        calls = []
        g = Derivator.identity((0.0, 1.0))
        p = IVProblem(0.0, 1.0, [0.0, 0.0], [g, g],
                      [self.recording(f"f{i}", 0.5, calls) for i in range(2)])
        h_r = [self.recording(f"h{i}", 1.0, calls) for i in range(2)]
        report = caratheodory_bound_check(p, r=1.0, h_r=h_r, n_samples=2500)
        assert report.passed
        assert calls == [(name, size) for size in (1024, 1024, 452)
                         for name in ("f0", "h0", "f1", "h1")]

    def test_the_first_block_with_a_non_finite_value_raises(self):
        # component 0 fails only in the third block, component 1 in the first
        ts = np.random.default_rng(0).uniform(0.0, 1.0, size=3000).tolist()
        g = Derivator.identity((0.0, 1.0))
        p = IVProblem(0.0, 1.0, [0.0, 0.0], [g, g],
                      [lambda t, x: math.nan if t == ts[2500] else 0.0,
                       lambda t, x: math.nan if t == ts[10] else 0.0])
        with pytest.raises(SolverError, match=f"rhs component 1 returned nan at t={ts[10]}"):
            caratheodory_bound_check(p, r=1.0, h_r=lambda t: 1.0, n_samples=3000)


class TestNonFiniteSamples:
    """The sampled checks used to certify a rhs, weight or modulus returning NaN."""

    def nan_problem(self, **kw):
        kw.setdefault("modulus", omega_k_modulus(1))
        return IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))],
                         [lambda t, x: math.nan], ball_radius=1.0, **kw)

    def test_nan_rhs_fails_the_uniqueness_certificate(self):
        with pytest.raises(SolverError, match=r"rhs component 0 returned nan at t="):
            uniqueness_certificate(self.nan_problem(), n_samples=200)

    def test_nan_modulus_fails_the_uniqueness_certificate(self):
        modulus = OsgoodModulus(evaluator=lambda s: s if s <= 1.0 else math.nan)
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))],
                      [lambda t, x: x[0]], ball_radius=1.0, modulus=modulus)
        with pytest.raises(SolverError, match=r"modulus returned nan at s="):
            uniqueness_certificate(p, n_samples=200)

    def test_nan_rhs_fails_the_caratheodory_check(self):
        with pytest.raises(SolverError, match=r"rhs component 0 returned nan at t="):
            caratheodory_bound_check(self.nan_problem(), r=1.0, h_r=lambda t: 1.0)

    def test_nan_bound_fails_the_caratheodory_check(self):
        p = IVProblem(0.0, 1.0, [0.0], [Derivator.identity((0.0, 1.0))],
                      [lambda t, x: 0.5])
        with pytest.raises(SolverError, match=r"domination bound 0 returned nan"):
            caratheodory_bound_check(p, r=1.0, h_r=lambda t: math.nan)

    def test_nan_component_is_not_hidden_by_max(self):
        # max(1.0, nan) is 1.0 in Python: the a-priori integrand must not use it
        g = Derivator.identity((0.0, 1.0))
        p = IVProblem(0.0, 1.0, [0.0, 0.0], [g, g],
                      [lambda t, x: 1.0, lambda t, x: math.nan], modulus=LINEAR)
        with pytest.raises(IntegrandError):
            apriori_bound(p)


def _expr_and_lambda_problems(sources, lambdas, **kw):
    """The same problem twice: rhs as compiled expressions and as plain lambdas."""
    g1 = Derivator((0.0, 1.0), breakpoints=[0.0, 0.4, 1.0], slopes=[1.0, 0.5],
                   jumps=[(0.3, 0.2), (0.7, 0.1)])
    g2 = Derivator.identity((0.0, 1.0)).with_jumps([(0.7, 0.3), (0.9, 0.05)])
    n = len(sources)
    exprs = [ExprFunction(parse(src, n), src) for src in sources]
    make = lambda rhs: IVProblem(0.0, 1.0, [0.3, -0.2], [g1, g2], rhs, **kw)
    return make(exprs), make(lambdas)


class TestBatchedPathMatchesScalar:
    SOURCES = ["0.5*sin(3*t)*x2 - 0.25*x1 + exp(-t)",
               "-0.05*cos(2*t) + 0.2*x1 + 0.3*omega_k(1, abs(x1 - 0.3))"]
    LAMBDAS = [
        lambda t, x: 0.5 * math.sin(3 * t) * x[1] - 0.25 * x[0] + math.exp(-t),
        lambda t, x: -0.05 * math.cos(2 * t) + 0.2 * x[0]
        + 0.3 * float(omega_k(1, abs(x[0] - 0.3))),
    ]

    def test_integral_map_and_picard(self, monkeypatch):
        p_expr, p_plain = _expr_and_lambda_problems(self.SOURCES, self.LAMBDAS)
        grid = build_grid(p_expr, n_steps=300)
        tr = solve_euler(p_plain, grid)
        scalar_calls = []
        walk = ExprFunction.__call__
        monkeypatch.setattr(ExprFunction, "__call__",
                            lambda self, *a: scalar_calls.append(a) or walk(self, *a))
        res_expr = residual(p_expr, tr)
        # only the impulses at the atom rows 0.3, 0.7 (shared) and 0.9 are scalar
        assert len(scalar_calls) == 3 * p_expr.n
        np.testing.assert_allclose(res_expr, residual(p_plain, tr), rtol=1e-12, atol=1e-15)
        a = solve_picard(p_expr, grid, tol=1e-12)
        b = solve_picard(p_plain, grid, tol=1e-12)
        assert a.n_iterations == b.n_iterations
        np.testing.assert_allclose(a.values, b.values, rtol=1e-14, atol=0)
        np.testing.assert_allclose(a.right_values, b.right_values, rtol=1e-14, atol=0)

    # a sqrt rhs against a linear modulus violates the inequality often
    CERT_SOURCES = ["sign(x1)*sqrt(abs(x1)) + x2", "0.5*x1 - sin(x2)"]
    CERT_LAMBDAS = [lambda t, x: math.copysign(math.sqrt(abs(x[0])), x[0]) + x[1],
                    lambda t, x: 0.5 * x[0] - math.sin(x[1])]

    def cert_problems(self):
        return _expr_and_lambda_problems(
            self.CERT_SOURCES, self.CERT_LAMBDAS, ball_radius=1.0,
            modulus=OsgoodModulus(evaluator=ExprFunction(parse("2*t", 0)), name="2s"),
        )

    @pytest.mark.parametrize("n_samples", [1000, 2500])
    def test_uniqueness_certificate_blocks(self, n_samples, monkeypatch):
        p_expr, p_plain = self.cert_problems()
        monkeypatch.setattr(ExprFunction, "__call__", lambda self, *a: math.nan)
        a = uniqueness_certificate(p_expr, n_samples=n_samples, seed=3)
        monkeypatch.undo()
        b = uniqueness_certificate(p_plain, n_samples=n_samples, seed=3)
        assert a.verdict == b.verdict == "UNVERIFIED"
        assert len(b.violations) > 0
        assert [v[:2] for v in a.violations] == [v[:2] for v in b.violations]
        np.testing.assert_allclose([v[2:] for v in a.violations],
                                   [v[2:] for v in b.violations], rtol=1e-14, atol=0)
        # the violation order is (sample, component), the order of the draws
        rng = np.random.default_rng(3)
        ts = rng.uniform(0.0, 1.0, size=n_samples)
        order = [np.flatnonzero(ts == v[0])[0] * 2 + v[1] for v in b.violations]
        assert order == sorted(order)

    def test_uniqueness_block_falling_back_counts_each_violation_once(self):
        class EveryOtherBlock:
            """A rhs whose batch answers only every other call."""

            def __init__(self, f):
                self.f, self.calls = f, 0

            def __call__(self, t, x):
                return self.f(t, x)

            def batch(self, ts, xs):
                self.calls += 1
                if self.calls % 2 == 0:
                    return None
                return np.array([self.f(t, x) for t, x in zip(ts, xs)])

        p_expr, p_plain = self.cert_problems()
        rhs = [EveryOtherBlock(f) for f in self.CERT_LAMBDAS]
        p_mixed = IVProblem(p_plain.t0, p_plain.horizon, p_plain.x0, p_plain.derivators,
                            rhs, ball_radius=1.0, modulus=p_expr.modulus)
        a = uniqueness_certificate(p_mixed, n_samples=3000, seed=5)
        b = uniqueness_certificate(p_plain, n_samples=3000, seed=5)
        assert rhs[0].calls == 3  # three blocks, the second one scalar
        assert a.violations == b.violations

    def test_reports_serialize_to_json(self):
        p_expr, _ = self.cert_problems()
        u = uniqueness_certificate(p_expr, n_samples=2000).to_dict()
        c = caratheodory_bound_check(p_expr, 1.0, lambda t: 1.0, n_samples=2000).to_dict()
        assert set(u) == {"verdict", "sampled", "n_samples", "osgood_verdicts",
                          "n_violations", "violations", "phi_integrals"}
        assert set(c) == {"passed", "r", "n_samples", "n_violations", "violations"}
        assert (u["n_violations"], c["n_violations"]) == (138, 908)
        assert len(u["violations"]) == len(c["violations"]) == 10  # the first ten only
        assert set(u["violations"][0]) == {"t", "component", "lhs", "rhs"}
        assert set(c["violations"][0]) == {"t", "component", "lhs", "bound"}
        assert json.loads(json.dumps(u))["verdict"] == "UNVERIFIED"
        assert json.loads(json.dumps(c))["passed"] is False

    def test_reports_list_the_first_ten_violations_in_order(self):
        p_expr, _ = self.cert_problems()
        u = uniqueness_certificate(p_expr, n_samples=2000)
        c = caratheodory_bound_check(p_expr, 1.0, lambda t: 1.0, n_samples=2000)
        for report, key in ((u, "rhs"), (c, "bound")):
            listed = report.to_dict()["violations"]
            assert [list(d) for d in listed] == [["t", "component", "lhs", key]] * 10
            assert [tuple(d.values()) for d in listed] == report.violations[:10]

    def test_growth_bounds_take_the_batched_max_of_expr_rhs(self, monkeypatch):
        p_expr, p_plain = _omega_k_problems(ball_radius=0.5, modulus=omega_k_modulus(1))
        answers = []
        real = _AbsRhsAtX0.batch

        def recorded(self, ss):
            answers.append(real(self, ss))
            return answers[-1]

        monkeypatch.setattr(_AbsRhsAtX0, "batch", recorded)
        sigma, bound = horizon_for_ball(p_expr), apriori_bound(p_expr)
        assert answers and all(a is not None for a in answers)
        answers.clear()
        plain = apriori_bound(p_plain)
        assert answers and all(a is None for a in answers)  # lambdas have no batch
        assert sigma == horizon_for_ball(p_plain) == 0.296875
        assert bound.t1 == plain.t1 == 1.0
        assert bound.kappa == pytest.approx(plain.kappa, rel=1e-14, abs=0.0)


def _positive_pieces(g, cuts):
    """``(lo, hi)`` of the pieces ``g._pieces(cuts)`` where g's slope is positive."""
    edges, slope = g._pieces(cuts)
    return edges[:-1][slope > 0.0], edges[1:][slope > 0.0]


class TestBlockedIntegralMap:
    """``integral_map`` runs each component on blocks of ``_MAP_BLOCK // 6`` cells,
    whose pieces have about ``_MAP_BLOCK`` Gauss-Legendre nodes each."""

    def map_of(self, problem, grid):
        tr = solve_euler(problem, grid, compute_residual=False)
        data = _GridData(problem, grid)
        return data.integral_map(tr.values, tr.right_values, data.impulses(tr.values)[1])

    def test_the_blocks_do_not_change_the_map(self, monkeypatch):
        problems = _expr_and_lambda_problems(TestBatchedPathMatchesScalar.SOURCES,
                                             TestBatchedPathMatchesScalar.LAMBDAS)
        # 1,501 cells: more than one default block of cells, and g1's
        # breakpoint at 0.4 lies inside a cell
        grid = build_grid(problems[0], n_steps=1501)
        assert 0.4 not in grid
        assert grid.size - 1 > solver._MAP_BLOCK // solver._GRID_QUAD_ORDER
        # the same with a g1 flat on [0.1, 0.9], which leaves blocks of cells
        # without a piece
        flat = Derivator((0.0, 1.0), breakpoints=[0.0, 0.1, 0.9, 1.0], slopes=[1.0, 0.0, 2.0],
                         jumps=[(0.3, 0.2), (0.7, 0.1)])
        problems += tuple(dataclasses.replace(p, derivators=(flat, p.derivators[1])) for p in problems)
        for p in problems:
            reference = self.map_of(p, grid)
            # one cell a block, two blocks, and the whole grid as one block
            for block in (7, 6 * 760, 10**6):
                monkeypatch.setattr(solver, "_MAP_BLOCK", block)
                assert np.array_equal(self.map_of(p, grid), reference)
                monkeypatch.undo()

    def test_a_nan_in_a_later_block_is_named(self):
        p_expr, _ = _expr_and_lambda_problems(TestBatchedPathMatchesScalar.SOURCES,
                                              TestBatchedPathMatchesScalar.LAMBDAS)
        grid = build_grid(p_expr, n_steps=2000)
        # node 4 of cell 166 of the second block of component 1, which is node
        # 1,000 of that block: g2 has slope 1 and no breakpoint inside a cell
        k = solver._MAP_BLOCK // solver._GRID_QUAD_ORDER + 166
        assert grid.size - 1 > k
        (lo,), (hi,) = _positive_pieces(p_expr.derivators[1], grid[k:k + 2])
        half = (hi - lo) / 2.0
        bad = float(half * np.polynomial.legendre.leggauss(solver._GRID_QUAD_ORDER)[0][4]
                    + (lo + hi) / 2.0)
        f = p_expr.rhs[1]
        rhs = [p_expr.rhs[0], lambda t, x: math.nan if t == bad else f(t, x)]
        p = IVProblem(p_expr.t0, p_expr.horizon, p_expr.x0, p_expr.derivators, rhs)
        data = _GridData(p, grid)
        values = np.zeros((grid.size, 2))
        with pytest.raises(SolverError, match=f"rhs component 1 returned nan at t={bad} during"):
            data.integral_map(values, values, data.impulses(values)[1])

    def test_picard_builds_the_nodes_of_each_block_once(self, monkeypatch):
        p, _ = _expr_and_lambda_problems(TestBatchedPathMatchesScalar.SOURCES,
                                         TestBatchedPathMatchesScalar.LAMBDAS)
        grid = build_grid(p, n_steps=3000)
        per_block = solver._MAP_BLOCK // solver._GRID_QUAD_ORDER
        blocks = range(0, grid.size - 1, per_block)
        assert len(blocks) == 3
        every_block_once = [_positive_pieces(g, grid[s:s + per_block + 1])[0].size
                            for g in p.derivators for s in blocks]
        # the blocks' pieces are the pieces of the whole grid
        assert sum(every_block_once) == sum(_positive_pieces(g, grid)[0].size for g in p.derivators)
        built = []
        real = solver._gl_nodes
        monkeypatch.setattr(solver, "_gl_nodes", lambda lo, hi, q: built.append(lo.size) or real(lo, hi, q))
        trace = solve_picard(p, grid, tol=1e-10)
        assert trace.n_iterations > 2
        assert built == every_block_once
        built.clear()
        residual(p, trace)
        assert built == every_block_once

    def test_the_memory_peak_grows_only_by_the_output_arrays(self):
        p_expr, _ = _expr_and_lambda_problems(TestBatchedPathMatchesScalar.SOURCES,
                                              TestBatchedPathMatchesScalar.LAMBDAS)

        def peak(n_steps):
            data = _GridData(p_expr, build_grid(p_expr, n_steps=n_steps))
            values = np.ones((data.n_cells + 1, 2))
            atom_f = data.impulses(values)[1]
            tracemalloc.start()
            try:
                data.integral_map(values, values, atom_f)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the map's one array of N rows is the output, into which the cell
        # totals are summed: 2 floats a row.  Pieces of the whole grid and the
        # cell widths grew by 10 floats a row, and one block of all ~240k
        # nodes per component by 16.7 MB.
        growth = peak(40_000) - peak(10_000)
        assert growth <= 30_000 * 2 * 8 * 1.05


class TestSolvePeaks:
    """The memory of both solver phases grows only by their arrays of N rows."""

    @staticmethod
    def peak_growth(run):
        """How much the tracemalloc peak of ``run(problem, grid, trace)`` grows
        from 10k to 40k steps, on a two-component problem."""
        p, _ = _expr_and_lambda_problems(TestBatchedPathMatchesScalar.SOURCES,
                                         TestBatchedPathMatchesScalar.LAMBDAS)

        def peak(n_steps):
            grid = build_grid(p, n_steps=n_steps)
            trace = solve_euler(p, grid, compute_residual=False)
            tracemalloc.start()
            try:
                run(p, grid, trace)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        return peak(40_000) - peak(10_000)

    def test_the_euler_peak_grows_only_by_its_arrays(self):
        # a row (n = 2) holds 6.06 floats: the increments, the output values
        # and right values, the jump flags and the output buffers' slack.
        # Building the increments takes 5 at most: them and 3 floats of
        # ``g.continuous``.  Building them from ``np.diff`` of ``continuous``
        # took 7, dense jumps of every row 2 more, and rows of Python floats
        # made up front about 410 B a row more.
        growth = self.peak_growth(lambda p, grid, trace: solve_euler(p, grid, compute_residual=False))
        assert growth <= 30_000 * 6.06 * 8 * 1.05

    def test_the_residual_peak_grows_only_by_its_arrays_and_not_by_its_nodes(self):
        # a row (n = 2) holds the output's 2 floats: the jumps are kept at
        # the atom rows only, and the pieces and nodes come one block of cells
        # at a time.  The pieces of the whole grid and dense jumps grew by 13
        # floats a row, and keeping every node by about 385 B a row.
        growth = self.peak_growth(lambda p, grid, trace: residual(p, trace))
        assert growth <= 30_000 * 2 * 8 * 1.05


class TestStreamedDraws:
    """Both sampled checks draw their samples one block of ``_CERT_BLOCK`` at a
    time: the very samples of drawing them all at once from ``default_rng(seed)``."""

    N_SAMPLES = 2500  # two full blocks and a partial one

    def test_the_blocks_are_slices_of_the_whole_draws(self):
        n, size = self.N_SAMPLES, solver._CERT_BLOCK
        assert n % size
        draws = [(0.5, 2.0, ()), (-1.0, 1.0, (3,)), (-3.0, 0.0, (2,))]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            whole = [rng.uniform(low, high, size=(n, *shape)) for low, high, shape in draws]
            blocks = list(solver._drawn_blocks(seed, n, *draws))
            assert [b[0].shape for b in blocks] == [(min(size, n - s),) for s in range(0, n, size)]
            for k, drawn in enumerate(whole):
                assert np.concatenate([b[k] for b in blocks]).tobytes() == drawn.tobytes()

    @staticmethod
    def uniqueness_reference(problem, n_samples, seed):
        """The violations of ``uniqueness_certificate`` (phi = 1), with all times,
        then all x, then all y drawn at once, checked sample by sample."""
        rng = np.random.default_rng(seed)
        r = problem.ball_radius
        ts = rng.uniform(problem.t0, problem.t0 + problem.horizon, size=n_samples)
        xs = problem.x0 + rng.uniform(-r, r, size=(n_samples, problem.n))
        ys = problem.x0 + rng.uniform(-r, r, size=(n_samples, problem.n))
        violations = []
        for t, x, y in zip(ts.tolist(), xs, ys):
            allowance = float(problem.modulus(float(np.max(np.abs(x - y)))))
            for i, f in enumerate(problem.rhs):
                fx, fy = float(f(t, tuple(x.tolist()))), float(f(t, tuple(y.tolist())))
                if abs(fx - fy) > allowance + solver._ROUNDING_ULPS * np.spacing(abs(fx) + abs(fy)):
                    violations.append((t, i, abs(fx - fy), allowance))
        return violations

    @staticmethod
    def caratheodory_reference(problem, r, h, n_samples, seed):
        """The violations of ``caratheodory_bound_check`` with one shared bound h,
        with all times, then all states drawn at once, checked sample by sample."""
        rng = np.random.default_rng(seed)
        ts = rng.uniform(problem.t0, problem.t0 + problem.horizon, size=n_samples)
        xs = problem.x0 + rng.uniform(-r, r, size=(n_samples, problem.n))
        violations = []
        for t, x in zip(ts.tolist(), xs):
            for i, f in enumerate(problem.rhs):
                lhs, bound = abs(float(f(t, tuple(x.tolist())))), float(h(t))
                if lhs > bound + solver._ROUNDING_ULPS * np.spacing(lhs + abs(bound)):
                    violations.append((t, i, lhs, bound))
        return violations

    @pytest.mark.parametrize("seed", range(10))
    def test_the_certificate_is_that_of_all_at_once_draws(self, seed):
        # the sqrt rhs fails the linear modulus 2s on some samples
        for p in TestBatchedPathMatchesScalar().cert_problems():
            report = uniqueness_certificate(p, n_samples=self.N_SAMPLES, seed=seed)
            assert report.n_samples == self.N_SAMPLES and report.verdict == "UNVERIFIED"
            assert report.violations == self.uniqueness_reference(p, self.N_SAMPLES, seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_the_domination_check_is_that_of_all_at_once_draws(self, seed):
        h = lambda t: 0.5 + t
        for p in TestBatchedPathMatchesScalar().cert_problems():
            report = caratheodory_bound_check(p, 1.0, h, n_samples=self.N_SAMPLES, seed=seed)
            assert report.n_samples == self.N_SAMPLES and not report.passed
            assert report.violations == self.caratheodory_reference(p, 1.0, h, self.N_SAMPLES, seed)

    @pytest.mark.parametrize("check", [
        lambda p, n: uniqueness_certificate(p, n_samples=n),
        lambda p, n: caratheodory_bound_check(p, 1.0, lambda t: 1e3, n_samples=n),
    ], ids=["uniqueness", "domination"])
    def test_the_peak_does_not_grow_with_the_samples(self, check):
        # a Lipschitz rhs (constant 0.75 in the max norm) under the modulus s:
        # no violation, so the report holds nothing per sample
        sources = ["0.5*sin(3*t)*x2 - 0.25*x1", "0.2*x1 - 0.1*x2"]
        g = Derivator.identity((0.0, 1.0))
        p = IVProblem(0.0, 1.0, [0.3, -0.2], [g, g], [ExprFunction(parse(s, 2), s) for s in sources],
                      ball_radius=1.0, modulus=OsgoodModulus(evaluator=ExprFunction(parse("t", 0))))
        assert not check(p, 100).violations  # and the modulus's cells are built

        def peak(n_samples):
            tracemalloc.start()
            try:
                check(p, n_samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # drawn at once, the samples grew by 56 B a sample (40 B for the
        # domination check)
        assert peak(40_000) - peak(10_000) < 30_000 * 8
