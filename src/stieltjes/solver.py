"""Initial value problems in which each component has its own derivator.

The system solved here is, component by component,

    d x_i / d g_i (t) = f_i(t, x(t)),    x(t0) = x0,

on a horizon ``[t0, t0 + sigma)``.  Every derivator may carry jumps, and a
jump of ``g_i`` at ``t`` forces the exact impulse update

    x_i(t+) = x_i(t) + f_i(t, x(t)) * jump_i(t),

with the pre-jump state on the right: that is the only update compatible
with left-continuity and the integral over ``[t0, t)``.  Between atoms the
dynamics follow the absolutely continuous parts of the derivators.

Two solvers share one grid (a uniform partition united with every jump
abscissa):

* ``solve_euler`` is the forward scheme: per step, impulse first with the
  pre-jump state, then the continuous sub-step using the post-jump state
  and the increment of the continuous part of each ``g_i``.  On pure-jump
  derivators the recursion *is* the solution, to machine precision.
* ``solve_picard`` iterates the integral-equation map
  ``x -> x0 + integral of f(s, x(s)) d g`` with piecewise-linear
  interpolation of the iterate between grid points (discontinuous across
  atoms: post-jump values start each segment).

``residual`` measures how far any trace is from one application of the grid
map (a defect, not an error; on a Picard trace it is the fixed-point defect);
``apriori_bound`` and ``uniqueness_certificate`` implement the growth-bound
and uniqueness machinery built on Osgood moduli, and
``horizon_for_ball`` searches for a horizon on which the integral operator
provably maps the domain ball into itself.
"""

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from operator import sub

import numpy as np

from .derivative import IndefiniteIntegral
from .derivator import Derivator, _sorted_unique, sum_derivators
from .errors import (
    BoundInapplicableError,
    ConfigurationError,
    DomainExitError,
    IntegrandError,
    NoCertifiedHorizonError,
    NonConvergenceError,
    SolverError,
    _points,
    _real,
    _reals,
    _require_count,
    _require_positive,
    _shown,
)
from .expr import _HANDED, ExprFunction, VarX, _define, _source, _walk
from .measure import QuadratureConfig, _gl_nodes, _gl_rule, _sample_finite, integrate, measure_interval
from .moduli import (_ROUNDING_ULPS, OmegaTransform, OsgoodModulus, _as_modulus, _reciprocal_sample,
                     bihari_bound, osgood_check)

__all__ = [
    "IVProblem",
    "SolutionTrace",
    "build_grid",
    "solve_euler",
    "solve_picard",
    "residual",
    "horizon_for_ball",
    "apriori_bound",
    "AprioriBound",
    "uniqueness_certificate",
    "UniquenessReport",
    "caratheodory_bound_check",
    "CaratheodoryReport",
]

# Gauss-Legendre nodes per grid cell (and slope segment) of the integral map
_GRID_QUAD_ORDER = 6
# Quadrature nodes per block of the integral map: its pieces, nodes, weights
# and interpolated states are built from ``_MAP_BLOCK // _GRID_QUAD_ORDER``
# cells at a time (more nodes where a block holds breakpoints), so a 10k-step
# residual never holds its ~60k nodes per component at once.  A grid of up to
# ~1,300 cells runs as one block.
_MAP_BLOCK = 8192


@dataclass(frozen=True)
class IVProblem:
    """Problem data: one derivator and one scalar rhs per component.

    ``rhs[i]`` is called as ``f_i(t, x)`` with the full state: ``t`` a Python
    float and ``x`` a tuple of n Python floats, at every scalar call in the
    package.  A rhs reads ``x[j]`` (or iterates ``x``) and must not rely on
    array arithmetic; the tuple also keeps it from altering a stored row.  When
    ``ball_radius`` is set, the admissible states are the closed max-norm
    ball of that radius around ``x0`` and solvers fail loudly on exit.
    ``modulus``/``phi`` declare the modulus-of-continuity structure of the
    rhs used by certificates and bounds; ``phi = None`` means the weight is
    identically one.  A plain callable ``modulus`` is wrapped into one
    ``OsgoodModulus``, whose table of cells every bound and certificate reads.
    ``t0``, ``horizon``, each entry of ``x0`` and ``ball_radius`` are read by
    ``errors._real``: a bool, a string, a nested ``x0`` or a number beyond the
    float range raises ``ConfigurationError``.

    Batch protocol: a rhs may also offer ``f_i.batch(ts, xs) -> array``
    (``ts`` of shape ``(m,)``, states ``xs`` of shape ``(m, n)``), and
    ``phi`` and the modulus evaluator ``batch(ts) -> array``.  Quadrature,
    the residual map, the bounds and the sampled certificates then evaluate
    all their samples in one call.  ``batch`` returns ``None`` when it
    cannot answer (a domain violation, say); the scalar call is then made
    sample by sample.  The scalar call is the reference: ``batch`` must
    agree with it, and errors are always reported from it.  The impulses at
    the atoms of Picard and the residual use the scalar call.  Problem files
    build every expression as an ``expr.ExprFunction``: it compiles the tree
    into two straight-line functions, one over numpy for ``batch`` and one
    over ``math`` for the scalar call, which is the reference value of the
    expression and reports its errors.

    The sequential Euler step loop is emitted and compiled once per problem,
    at its first ``solve_euler``.  It writes the scalar function of each
    ``ExprFunction`` rhs out inline, from the same emitter, so its values
    and errors are those of the scalar call; any other rhs is called.  The
    integrals both growth bounds read (``_growth_tables``) are built once
    per problem, at its first bound call; later calls sample no phi or rhs.
    """

    t0: float
    horizon: float
    x0: np.ndarray
    derivators: tuple
    rhs: tuple
    ball_radius: float | None = None
    modulus: OsgoodModulus | None = None
    phi: object | None = None

    def __post_init__(self):
        object.__setattr__(self, "t0", _real("t0", self.t0))
        object.__setattr__(self, "horizon", _require_positive("horizon", self.horizon))
        x0 = _reals("x0", self.x0)
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        try:
            object.__setattr__(self, "derivators", tuple(self.derivators))
            object.__setattr__(self, "rhs", tuple(self.rhs))
        except TypeError:  # either cannot be iterated
            raise ConfigurationError(f"derivators and rhs must be sequences, got "
                                     f"{_shown(self.derivators)} and {_shown(self.rhs)}") from None
        if self.modulus is not None:
            object.__setattr__(self, "modulus", _as_modulus(self.modulus))
        if self.ball_radius is not None:
            object.__setattr__(self, "ball_radius", _require_positive("ball_radius", self.ball_radius))
        n = x0.size
        if n == 0:
            raise ConfigurationError("x0 must have at least one component")
        if len(self.derivators) != n or len(self.rhs) != n:
            raise ConfigurationError(
                f"need {n} derivators and rhs components, got "
                f"{len(self.derivators)} and {len(self.rhs)}"
            )
        end = self.t0 + self.horizon
        for i, (g, f) in enumerate(zip(self.derivators, self.rhs)):
            if not isinstance(g, Derivator):
                raise ConfigurationError(f"derivators[{i}] is not a Derivator")
            if not callable(f):
                raise ConfigurationError(f"rhs[{i}] is not callable, got {_shown(f)}")
            left, right = g.window
            if self.t0 < left or end > right:
                raise ConfigurationError(
                    f"derivators[{i}] window {g.window} does not contain "
                    f"[{self.t0}, {end}]"
                )

    @property
    def n(self):
        return self.x0.size

    @cached_property
    def _center(self):
        return tuple(self.x0.tolist())

    @cached_property
    def _euler_steps(self):
        """The step loop of ``solve_euler`` for this problem, compiled on first use."""
        return _define(_euler_source(self), "steps", _HANDED, zip=zip, iter=iter, next=next,
                       array=array, isfinite=math.isfinite, nan=math.nan, rhs_error=_rhs_error,
                       check_ball=_check_ball)

    @cached_property
    def _growth(self):
        """``_growth_tables`` of this problem, built on first use."""
        return _growth_tables(self)

    def eval_rhs(self, t, x):
        """The n rhs values at float ``t`` and state tuple ``x``, as a list of floats."""
        out = []
        for i, f in enumerate(self.rhs):
            v = float(f(t, x))
            if not math.isfinite(v):
                raise _rhs_error(i, v, t)
            out.append(v)
        return out


def _rhs_error(i, v, t):
    return SolverError(f"rhs component {i} returned {v} at t={t}")


@dataclass
class SolutionTrace:
    """Grid, states, and post-jump states of one computed solution.

    ``values[k]`` is the (left-continuous) state at ``grid[k]``;
    ``right_values[k]`` differs from it exactly at grid points where some
    component's derivator jumps, where it carries the post-impulse state.
    ``residual`` is per component: for Euler traces the integral-equation
    residual of ``residual()``, for Picard traces the sup-norm change of the
    last iteration.  Neither is an error bound: on a Picard trace the grid
    residual is the fixed-point defect of the very map Picard iterates.
    """

    grid: np.ndarray
    values: np.ndarray
    right_values: np.ndarray
    method: str
    residual: np.ndarray | None = None
    n_iterations: int | None = None

    @property
    def final(self):
        return self.values[-1]

    def sup_distance(self, other):
        """Max-norm distance to another trace on the same grid."""
        if self.grid.shape != other.grid.shape or not np.array_equal(self.grid, other.grid):
            raise ConfigurationError("traces live on different grids")
        return float(
            max(
                np.max(np.abs(self.values - other.values)),
                np.max(np.abs(self.right_values - other.right_values)),
            )
        )


def build_grid(problem, sigma=None, n_steps=256):
    """Uniform partition of [t0, t0+sigma] united with every jump abscissa.

    Jump points of every component in [t0, t0+sigma) enter the grid exactly
    (no snapping); duplicates collapse by exact comparison.
    """
    sigma = problem.horizon if sigma is None else _real("sigma", sigma)
    if not 0 < sigma <= problem.horizon:
        raise ConfigurationError(f"sigma must be in (0, {problem.horizon}]")
    _require_count("n_steps", n_steps)
    t0 = problem.t0
    end = t0 + sigma
    parts = [np.linspace(t0, end, n_steps + 1)]
    for g in problem.derivators:
        pts = g.jump_points
        parts.append(pts[(pts >= t0) & (pts < end)])
    return _sorted_unique(np.concatenate(parts))


def _check_ball(problem, state, t):
    """Raise ``DomainExitError`` when ``state`` (n floats) lies outside the ball."""
    if problem.ball_radius is None:
        return
    if max(map(abs, map(sub, state, problem._center))) > problem.ball_radius:
        raise DomainExitError(
            f"state left the domain ball (radius {problem.ball_radius}) at t={t}; "
            "a smaller horizon may be certifiable via horizon_for_ball",
            time=t,
            state=np.array(state),
        )


class _GridData:
    """Per-grid pre-computation shared by both solvers and the residual map.

    It keeps the jumps at the atom rows only, the grid points where some
    derivator jumps: ``jumps[a]`` holds each component's jump at grid point
    ``atom_rows[a]``, which ``impulses`` applies.  Euler's continuous
    increments ``cont_inc`` are built on first use.  The integral map cuts
    each component's pieces and their quadrature nodes one block of cells at
    a time; with ``keep_nodes`` the nodes of every block are kept once built,
    for a caller that runs the integral map on the grid many times.
    """

    def __init__(self, problem, grid, keep_nodes=False):
        self.problem = problem
        self.grid = np.asarray(_points("grid", grid))
        if self.grid.ndim != 1 or self.grid.size < 2 or not np.all(np.diff(self.grid) > 0):
            raise ConfigurationError("grid must be strictly increasing with >= 2 points")
        self.n_cells = self.grid.size - 1

        # every window holds the grid points but the closing one, which gets
        # no jump (the solution on the closed interval is the left limit
        # there).  An atom between grid points would be lost from both the
        # jumps and the continuous increments, so such grids are refused.
        hits = []
        for i, g in enumerate(problem.derivators):
            g._require_inside("t", self.grid[:-1], include_right=False)
            inside = (g.jump_points >= self.grid[0]) & (g.jump_points < self.grid[-1])
            pts = g.jump_points[inside]
            rows = np.searchsorted(self.grid, pts)
            missed = pts[self.grid[rows] != pts]
            if missed.size:
                raise ConfigurationError(
                    f"grid misses the atom of derivators[{i}] at t={missed[0]}; "
                    "build_grid includes every atom"
                )
            hits.append((rows, g.jump_sizes[inside]))
        self.atom_rows = _sorted_unique(np.concatenate([rows for rows, _ in hits]))
        self.jumps = np.zeros((self.atom_rows.size, problem.n))
        for i, (rows, sizes) in enumerate(hits):
            self.jumps[np.searchsorted(self.atom_rows, rows), i] = sizes

        self._kept = {} if keep_nodes else None  # ``_nodes`` by (component, start)

    @cached_property
    def cont_inc(self):
        """Continuous-part increments per cell and component, built on first
        use; column-major, so that each component's column is contiguous,
        and written in place, so that building them takes 1 float a row more."""
        cont_inc = np.empty((self.n_cells, self.problem.n), order="F")
        for i, g in enumerate(self.problem.derivators):
            cont = g.continuous(self.grid)
            np.subtract(cont[1:], cont[:-1], out=cont_inc[:, i])
            del cont  # before the next column's continuous part is built
        return cont_inc

    def _nodes(self, i, start):
        """Gauss-Legendre nodes, weights and cells of component i on the block
        of ``_MAP_BLOCK // _GRID_QUAD_ORDER`` cells from cell ``start``: of the
        pieces ``g_i._pieces`` cuts from its grid points where the slope is
        positive.  Kept with ``keep_nodes``."""
        if self._kept is not None and (i, start) in self._kept:
            return self._kept[i, start]
        order = _GRID_QUAD_ORDER
        cuts = self.grid[start:start + _MAP_BLOCK // order + 1]
        edges, slope = self.problem.derivators[i]._pieces(cuts)
        keep = slope > 0.0
        lo, hi, slope = edges[:-1][keep], edges[1:][keep], slope[keep]
        cell = np.searchsorted(self.grid, lo, side="right") - 1
        ts, half = _gl_nodes(lo, hi, QuadratureConfig(order=order, panels=1))
        nodes = ts, (slope[:, None] * half * _gl_rule(order)[1]).ravel(), np.repeat(cell, order)
        if self._kept is not None:
            self._kept[i, start] = nodes
        return nodes

    def impulses(self, values):
        """``(rights, atom_f)`` for the pre-jump states ``values``: the post-jump
        states, right[k] = value[k] + f(t_k, value[k]) * jump_k, and the rhs at
        the atom rows, one row of n values per atom."""
        rhs = self.problem.eval_rhs
        atom_f = np.array([rhs(float(self.grid[k]), tuple(values[k].tolist()))
                           for k in self.atom_rows]).reshape(self.jumps.shape)
        rights = values.copy()
        rights[self.atom_rows] += atom_f * self.jumps
        return rights, atom_f

    def integral_map(self, values, rights, atom_f):
        """One application of x -> x0 + integral of f(s, x(s)) dg on the grid.

        The iterate is interpolated linearly inside each cell from the
        post-jump state at the left node to the value at the right node.
        ``rights`` and ``atom_f`` are ``impulses(values)``.  Besides its
        output, the map holds one block of cells at a time: that block's
        pieces, nodes and gathered states.
        """
        problem, grid = self.problem, self.grid
        N, n = self.n_cells, problem.n
        out = np.zeros((N + 1, n))
        out[0] = problem.x0
        cells_total = out[1:]  # summed in place into the output

        # atomic contributions use the pre-jump state at the atom
        cells_total[self.atom_rows] += atom_f * self.jumps

        for i in range(n):
            # the pieces of consecutive blocks are the pieces of the whole
            # grid, in order, so np.add.at adds in node order however the
            # cells are split
            for start in range(0, N, _MAP_BLOCK // _GRID_QUAD_ORDER):
                ts, ws, cell_idx = self._nodes(i, start)
                # ``take`` gathers far faster than fancy indexing on these sizes
                t_left = grid.take(cell_idx)
                frac = (ts - t_left) / (grid.take(cell_idx + 1) - t_left)
                left = rights.take(cell_idx, axis=0)
                states = left + (values.take(cell_idx + 1, axis=0) - left) * frac[:, None]
                contrib = _sample_finite(problem.rhs[i], ts, lambda v, q: SolverError(
                    f"rhs component {i} returned {v} at t={ts[q]} during quadrature"
                ), xs=states)
                np.add.at(cells_total[:, i], cell_idx, contrib * ws)

        np.cumsum(cells_total, axis=0, out=cells_total)
        cells_total += problem.x0
        return out

    def residual(self, values, rights):
        """Per component, the max of |integral_map - values| over the grid."""
        mapped = self.integral_map(values, rights, self.impulses(values)[1])
        mapped -= values
        return np.max(np.abs(mapped, out=mapped), axis=0)


def _euler_source(problem):
    """The source of ``steps(problem, ts, deltas, incs, jumps)``, the Euler step loop.

    The state components are the locals ``s0, s1, ...``.  The body of each
    ``ExprFunction`` rhs is written inline by the expression emitter, reading
    t and the state from the locals, with the checks of the batch backend
    and the result's; a failure hands the component at that step to its
    call, after the handler, which raises the error or returns the same
    bits.  Any other rhs is called with a float t and the state tuple, and
    its value checked as ``eval_rhs`` checks it.  ``incs`` yields one row of
    increments per step and ``deltas`` one row of jumps per step that jumps;
    the states go, component by component, into two ``array("d")`` buffers,
    which are returned.
    """
    n = problem.n

    def names(letter):
        return ", ".join(f"{letter}{j}" for j in range(n)) + ","

    def block(indent, lines):
        return [" " * indent + line for line in lines]

    row = f"({names('s')})"
    reads = {"t": "t", "x<k>": "s{j}", "x": row}  # Python floats already: no ``real``
    rhs = []
    for i, f in enumerate(problem.rhs):
        call = [f"f{i} = real(rhs{i}(t, {row}))", f"if not isfinite(f{i}): raise rhs_error({i}, f{i}, t)"]
        # a tree that reads past x_n is called: its IndexError guard reports it
        if type(f) is ExprFunction and all(v.index <= n for v in _walk(f.tree) if isinstance(v, VarX)):
            inline = _source(f.tree, _HANDED, f"v{i}_", reads, f"f{i} = {{}}")
            # the call runs after the handler, so that its error is not chained to the first
            rhs += ["try:", *block(4, inline), "except (ArithmeticError, ValueError):", f"    f{i} = nan",
                    f"if f{i} - f{i} != 0.0:", *block(4, call)]
        else:
            rhs += call

    def ball(at):
        if problem.ball_radius is None:
            return []
        gaps = ", ".join(f"abs(s{j} - z{j})" for j in range(n))
        return [f"if {f'max({gaps})' if n > 1 else gaps} > radius: check_ball(problem, {row}, {at})"]

    def step(by):
        return [f"s{j} = s{j} + f{j} * {by}{j}" for j in range(n)]

    def put(into):
        return [f"{into}(s{j})" for j in range(n)]

    return "\n".join([
        "def steps(problem, ts, deltas, incs, jumps):",
        f"    {names('rhs')} = problem.rhs",
        f"    {names('z')} = problem._center",
        "    radius = problem.ball_radius",
        f"    {names('s')} = problem._center",
        "    deltas = iter(deltas)",
        '    values, rights = array("d"), array("d")',
        "    value, right = values.append, rights.append",
        *block(4, put("value")),
        f"    for t, t_next, ({names('c')}), jump in zip(ts, ts[1:], incs, jumps):",
        *block(8, rhs),
        "        if jump:",  # the impulse, with the pre-jump state
        f"            {names('d')} = next(deltas)",
        *block(12, [*step("d"), *ball("t"), *rhs]),
        *block(8, put("right")),
        *block(8, [*step("c"), *ball("t_next")]),
        *block(8, put("value")),
        *block(4, put("right")),
        "    return values, rights",
        "",
    ])


def solve_euler(problem, grid, compute_residual=True):
    """Forward Euler in the derivator increments, impulse-first.

    Per step ``t_k -> t_{k+1}``: all components apply their impulse with the
    shared pre-jump state, then the continuous sub-step uses the post-jump
    state and the increments of the continuous parts.  Pure-jump steps are
    exact by construction.  The steps run on Python floats, in one loop
    emitted and compiled for the problem at its first solve.  The state
    components are locals.  ``expr`` right-hand sides are written out inline
    with the batch backend's finiteness checks, and a failed check hands the
    value to the rhs call, which raises the error.  Any other rhs is called
    with a float ``t`` and the state as a tuple of floats (see
    ``IVProblem``).  The loop reads the grid, the increments and the jump
    flags one step at a time and a row of jumps only at a step that jumps;
    it writes the states into two flat buffers, which become the trace's
    arrays without a copy.
    """
    data = _GridData(problem, grid)
    grid = data.grid
    # read lazily, through memoryviews of the arrays: nothing of N rows is
    # turned into Python objects, and no heap of them builds up for the
    # garbage collector to sweep while the loop runs
    incs = zip(*map(memoryview, data.cont_inc.T))  # its columns are contiguous
    jumps_at = np.zeros(grid.size, dtype=bool)
    jumps_at[data.atom_rows] = True
    steps = problem._euler_steps(problem, memoryview(grid), data.jumps.tolist(), incs,
                                 memoryview(jumps_at))
    values, rights = (np.frombuffer(states).reshape(-1, problem.n) for states in steps)

    res = data.residual(values, rights) if compute_residual else None
    return SolutionTrace(
        grid=grid, values=values, right_values=rights, method="euler", residual=res
    )


def solve_picard(problem, grid, tol=1e-10, max_iter=100, initial=None):
    """Fixed-point iteration of the integral-equation map on the grid.

    Starts from the constant initial iterate (or ``initial``: a trace on the
    same grid or an ``(N+1, n)`` array of grid values, e.g. an Euler warm
    start; a trace on another grid raises ``ConfigurationError``) and stops
    when the sup-norm change of the grid values drops to ``tol``; the
    post-jump states of the returned trace are the accepted values' exact
    ``impulses``.  ``tol`` must be finite and positive and ``max_iter`` an
    integer >= 1, or ``ConfigurationError`` is raised.
    """
    _require_positive("tol", tol)
    _require_count("max_iter", max_iter)
    data = _GridData(problem, grid, keep_nodes=True)  # one map per iteration
    grid = data.grid
    N, n = data.n_cells, problem.n

    if initial is None:
        values = np.tile(problem.x0, (N + 1, 1))
    else:
        if not np.array_equal(getattr(initial, "grid", grid), grid):
            raise ConfigurationError("the initial trace lives on a different grid")
        values = np.array(getattr(initial, "values", initial), dtype=float)
        if values.shape != (N + 1, n):
            raise ConfigurationError(
                f"initial iterate must have shape {(N + 1, n)}, got {values.shape}"
            )
    # the rhs at the atoms serves both the impulses and the next map
    rights, atom_f = data.impulses(values)
    for iterations in range(1, max_iter + 1):
        new_values = data.integral_map(values, rights, atom_f)
        change = np.max(np.abs(new_values - values), axis=0)
        values = new_values
        rights, atom_f = data.impulses(values)
        if problem.ball_radius is not None:
            # the first row outside, its pre-jump state before its post-jump one
            outside = np.flatnonzero(np.maximum(
                np.abs(values - problem.x0), np.abs(rights - problem.x0)) > problem.ball_radius)
            if outside.size:
                k = outside[0] // n
                _check_ball(problem, values[k], float(grid[k]))
                _check_ball(problem, rights[k], float(grid[k]))
        if float(np.max(change)) <= tol:
            break
    else:
        raise NonConvergenceError(
            f"Picard iteration did not meet tol={tol} within {max_iter} iterations "
            f"(last change {float(np.max(change))})",
            last_change=change,
            iterations=max_iter,
        )

    return SolutionTrace(
        grid=grid,
        values=values,
        right_values=rights,
        method="picard",
        residual=change,
        n_iterations=iterations,
    )


def residual(problem, trace):
    """Per-component max deviation of a trace's grid values from one application
    of the grid integral map, ``_GridData.integral_map``.

    This is a defect, not an error.  On an Euler trace it tracks the error.
    A Picard trace is a fixed point of this same map on the same grid, so
    there it reads the fixed-point defect, at most about the acceptance
    ``tol`` however far the trace is from the solution.
    """
    return _GridData(problem, trace.grid).residual(trace.values, trace.right_values)


class _Weight:
    """The weight phi of a problem (``None``: phi = 1) as the bounds and the certificate
    read it: a sample that is not finite and nonnegative raises ``IntegrandError``."""

    def __init__(self, phi):
        self.phi = phi

    def __call__(self, t):
        return float(self.batch(np.array([float(t)]))[0])

    def batch(self, ts):
        if self.phi is None:
            return np.ones(len(ts))

        def refuse(v, q):
            return IntegrandError(
                f"weight returned {v} at t={ts[q]}; it must be finite and nonnegative",
                point=ts[q])

        vals = _sample_finite(self.phi, ts, refuse)
        negative = np.flatnonzero(vals < 0.0)
        if negative.size:
            raise refuse(vals[negative[0]], negative[0])
        return vals


class _AbsRhsAtX0:
    """``s -> |f(s, x0)|`` for one rhs component ``f``; NaN propagates."""

    def __init__(self, f, x0):
        self.f, self.x0 = f, x0  # x0: a tuple of floats

    def __call__(self, s):
        return abs(float(self.f(float(s), self.x0)))

    def batch(self, ss):
        batch = getattr(self.f, "batch", None)
        vals = None if batch is None else batch(ss, np.broadcast_to(self.x0, (len(ss), len(self.x0))))
        return None if vals is None else np.abs(vals)


def _cut(g, lo, hi):
    """The measure of g on the window [lo, hi], without its atoms at lo and hi."""
    inside = (g.jump_points > lo) & (g.jump_points < hi)
    return Derivator((lo, hi), *g._pieces((lo, hi)),  # breakpoints and slopes
                     jumps=zip(g.jump_points[inside], g.jump_sizes[inside]))


def _growth_tables(problem):
    """What both growth bounds integrate: ``(sigmas, ends, at_t0, h, A)``.

    The candidate horizons are sigmas = k * horizon / 64, k = 64..1, ending
    at ends = t0 + sigmas.  h is the ``IndefiniteIntegral`` of phi
    (``_Weight``) against the sum derivator ghat ``_cut`` to [t0, t0 + horizon]:
    phi is not sampled past the horizon, and the atom at t0 is left out; its
    term phi(t0) * jump is at_t0 (phi is sampled at t0 only at an atom).
    Row i of A is A_i, the integral of |f_i(s, x0)| over [t0, t) against
    g_i, at every end, read from the ``IndefiniteIntegral`` of |f_i(., x0)|
    against g_i cut at t0 + horizon, which keeps the atom at t0.
    """
    t0, end = problem.t0, problem.t0 + problem.horizon
    ghat = sum_derivators(problem.derivators)
    phi = _Weight(problem.phi)
    jump = ghat.jump(t0)
    at_t0 = phi(t0) * jump if jump > 0.0 else 0.0
    h = IndefiniteIntegral(phi, _cut(ghat, t0, end), t0)
    sigmas = np.linspace(problem.horizon, problem.horizon / 64, 64)
    ends = t0 + sigmas
    x0 = problem._center
    A = np.array([IndefiniteIntegral(_AbsRhsAtX0(f, x0), _cut(g, g.window[0], end), t0).batch(ends)
                  for g, f in zip(problem.derivators, problem.rhs)])
    return sigmas, ends, at_t0, h, A


def horizon_for_ball(problem):
    """Largest grid-searched sigma for which the ball-invariance inequality holds.

    The criterion is strict:  omega(R) * (phi-weighted measure of
    [t0, t0+sigma) under the sum derivator)  plus  sum_i A_i(t0+sigma)  must
    stay below the ball radius R, with A_i as in ``apriori_bound``.
    Sufficient, not necessary; failure for every tested sigma raises.  The
    candidates, the weighted measure at_t0 + h and the A_i are those of
    ``_growth_tables``, fits built once per problem.  omega(R) must be finite and
    positive, and phi (``_Weight``) finite and nonnegative at every sample,
    or ``IntegrandError`` is raised.
    """
    if problem.ball_radius is None or problem.modulus is None:
        raise ConfigurationError("horizon_for_ball needs ball_radius and modulus")
    R = problem.ball_radius
    omega_R = float(_reciprocal_sample(problem.modulus, np.array([R]))[1][0])
    sigmas, ends, at_t0, h, A = problem._growth
    inside = np.flatnonzero(omega_R * (at_t0 + h.batch(ends)) + A.sum(axis=0) < R)
    if inside.size:
        return float(sigmas[inside[0]])
    raise NoCertifiedHorizonError(
        f"no sigma in (0, {problem.horizon}] satisfies the ball-invariance "
        f"inequality for radius {R}"
    )


@dataclass
class AprioriBound:
    """Growth bound: every solution satisfies ||x(t) - x0|| <= bound(t) on [t0, t1].

    Built from the Bihari-type inequality; ``zero_kappa`` marks the
    degenerate case of a rhs vanishing along x0, where the bound collapses
    to zero (zeros of t's shape, elementwise, as every bound).
    """

    t0: float
    t1: float
    kappa: float
    bound: object  # callable t -> float, elementwise on an array of t
    transform: OmegaTransform | None = None
    zero_kappa: bool = False

    def __call__(self, t):
        return self.bound(t)

    def check_trace(self, trace):
        """Whether the trace keeps to the bound within 1e-6, and its max violation.

        The violation is taken over the grid points inside [t0, t1]; the
        bound is evaluated once, at all of those points together.
        """
        inside = (self.t0 <= trace.grid) & (trace.grid <= self.t1)
        if not inside.any():
            return True, -math.inf
        dev = np.max(np.abs(trace.values[inside] - trace.values[0]), axis=1)
        worst = float(np.max(dev - self.bound(trace.grid[inside])))
        return worst <= 1e-6, worst


def apriori_bound(problem):
    """The nondecreasing bound dominating every solution near t0, in the max norm.

    kappa = max_i A_i, A_i(t) the integral of |f_i(s, x0)| over [t0, t) against
    g_i: |x_i(t) - x0_i| <= A_i(t) + integral of phi * omega(||x - x0||) d ghat
    for each i, with ghat the sum derivator, and Bihari's lemma bounds the max.
    Needs a declared Osgood modulus (the osgood check at u0 = 1 must say
    DIVERGENT) and works on the largest tested sub-horizon [t0, t1] on which
    the Bihari precondition holds: Omega(kappa(t1)) plus the weighted-measure
    growth must stay below the top of the Omega view, widened by 10^4 at a
    time up to r = 1e120; every view reads the modulus's one table of cells,
    which integrates a cell once (a decreasing modulus raises there).  The
    candidates are every fourth end of ``_growth_tables``, t1 = t0 + k *
    horizon / 16, k = 16..1, and h and the A_i are its fits, built once
    per problem: h leaves out the atom at t0, which adds
    phi(t0) * omega(|x(t0) - x0|) * jump = 0, as x(t0) = x0 and omega(0) = 0.
    """
    if problem.modulus is None:
        raise ConfigurationError("apriori_bound needs a declared modulus")
    u0 = 1.0
    verdict = osgood_check(problem.modulus, u0).verdict
    if verdict != "DIVERGENT":
        raise BoundInapplicableError(
            f"the declared modulus is not certified Osgood (osgood_check: {verdict})"
        )

    t0 = problem.t0
    _, ends, _, h, A = problem._growth
    for t1, kappa in zip(ends[::4].tolist(), np.max(A[:, ::4], axis=0).tolist()):
        if kappa <= 0.0:
            return AprioriBound(t0=t0, t1=t1, kappa=0.0, zero_kappa=True,
                                bound=lambda t: np.zeros(np.shape(t)) if np.ndim(t) else 0.0)
        r_max = max(u0, kappa) * 100.0
        while r_max <= 1e120:  # past it, try a shorter horizon
            r_min = min(kappa, u0) * 1e-6
            transform = OmegaTransform(problem.modulus, u0, r_min=r_min, r_max=r_max)
            try:
                inner = bihari_bound(kappa, h, t0, t1, transform)
            except BoundInapplicableError:
                r_max *= 1e4
                continue
            return AprioriBound(t0=t0, t1=t1, kappa=kappa, bound=inner, transform=transform)
    raise BoundInapplicableError("the Bihari precondition failed on every tested sub-horizon")


def _listed(violations, bound_key):
    """The first ten ``(t, i, lhs, bound)`` violations as dicts, for ``to_dict``."""
    return [dict(zip(("t", "component", "lhs", bound_key), v)) for v in violations[:10]]


@dataclass
class UniquenessReport:
    """Sampled uniqueness certificate; evidence, not proof.

    ``verdict`` is OSGOOD-UNIQUE when the declared weight is identically
    one, MONTEL-TONELLI-UNIQUE when an integrable weight was declared, and
    UNVERIFIED when any sampled inequality fails or the osgood check is
    not DIVERGENT; ``osgood_verdicts`` lists that one verdict under the
    anchors u0 = 1 and u0 = 0.01, since it does not depend on u0.
    """

    verdict: str
    sampled: bool = True
    n_samples: int = 0
    osgood_verdicts: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    phi_integrals: list = field(default_factory=list)

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "sampled": self.sampled,
            "n_samples": self.n_samples,
            "osgood_verdicts": dict(self.osgood_verdicts),
            "n_violations": len(self.violations),
            "violations": _listed(self.violations, "rhs"),
            "phi_integrals": list(self.phi_integrals),
        }


# Samples per batched block of the sampled checks: large enough that
# per-call overhead vanishes, small enough that a block's draws and
# temporaries stay far below the size of all the samples, which are never
# held at once.
_CERT_BLOCK = 1024


def _sample_named(f, ts, name, xs=None):
    """``_sample_finite`` whose failure is ``SolverError("<name> returned <v> at t=<t>")``."""
    return _sample_finite(f, ts, lambda v, q: SolverError(f"{name} returned {v} at t={ts[q]}"),
                          xs=xs)


def _drawn_blocks(seed, n_samples, *draws):
    """The samples of ``draws``, ``_CERT_BLOCK`` at a time (the last block may be
    shorter), bit for bit the slices of drawing each draw whole, one after
    another, from ``np.random.default_rng(seed)``.

    A draw is ``(low, high, shape)``: in full, ``uniform(low, high,
    size=(n_samples, *shape))``.  A block is a list of one ``(m, *shape)``
    array per draw.  Each draw has its own PCG64, the bit generator of
    ``default_rng``, in the seeded state and advanced to where the draws
    before it end: PCG64 spends one 64-bit output per double.  A Generator
    passed as ``seed`` must run on PCG64; it is read, not advanced.
    """
    state = np.random.default_rng(seed).bit_generator.state
    gens, offset = [], 0
    for _, _, shape in draws:
        bits = np.random.PCG64(0)  # seeded only to skip the entropy; its state is replaced
        bits.state = state
        gens.append(np.random.Generator(bits.advance(offset)))
        offset += n_samples * math.prod(shape)
    for start in range(0, n_samples, _CERT_BLOCK):
        m = min(_CERT_BLOCK, n_samples - start)
        yield [gen.uniform(low, high, size=(m, *shape))
               for gen, (low, high, shape) in zip(gens, draws)]


def _sampled_violations(blocks, check):
    """``(t, i, lhs, bound)`` wherever ``lhs > bound + slack``, sample-major.

    ``blocks`` yields the drawn arrays of one block of samples, the times
    first (``_drawn_blocks``); ``check(*block)`` returns their ``(m, n)``
    arrays ``lhs``, ``bound`` and ``slack``.
    """
    violations = []
    for block in blocks:
        lhs, bound, slack = check(*block)
        violations += [(float(block[0][q]), int(i), float(lhs[q, i]), float(bound[q, i]))
                       for q, i in zip(*np.nonzero(lhs > bound + slack))]
    return violations


def uniqueness_certificate(problem, n_samples=10_000, seed=0):
    """Spot-check the modulus-of-continuity inequality behind uniqueness.

    Verifies (a) the declared modulus passes the osgood check, run once
    (at u0 = 1: the verdict does not depend on u0), (b)
    ``|f_i(t,x) - f_i(t,y)| <= phi(t) * omega(||x-y||)`` on a randomized
    sample of the domain, (c) the weight is integrable against every
    component derivator (one ``integrate`` each, with its default rule; for
    phi = 1 the integral is the measure of the horizon, ``measure_interval``).
    All three are sampled evidence; the report says so; a phi refused in
    (c) leaves the report UNVERIFIED and unsampled.
    The samples are drawn and evaluated in blocks of ``_CERT_BLOCK``
    (``_drawn_blocks``), the same samples as drawing all n_samples times,
    then all x, then all y, from ``default_rng(seed)``: per block phi, the
    modulus at the gaps, then each rhs at x and y of every sample;
    violations are listed in (sample, component) order.  A phi sample that
    is not finite and nonnegative raises ``IntegrandError`` (``_Weight``),
    a non-finite rhs or modulus value ``SolverError``, naming it and the
    sample time.  ``n_samples`` must be an integer >= 1: no samples would be
    no evidence.
    """
    if problem.modulus is None:
        raise ConfigurationError("uniqueness_certificate needs a declared modulus")
    _require_count("n_samples", n_samples)
    report = UniquenessReport(verdict="UNVERIFIED")
    osgood = osgood_check(problem.modulus, 1.0).verdict
    report.osgood_verdicts = {1.0: osgood, 0.01: osgood}

    phi = _Weight(problem.phi)
    t_end = problem.t0 + problem.horizon
    if problem.phi is None:
        report.phi_integrals = [float(measure_interval(g, problem.t0, t_end)) for g in problem.derivators]
    else:
        try:
            report.phi_integrals = [integrate(g, phi, problem.t0, t_end) for g in problem.derivators]
        except IntegrandError:
            return report

    r = problem.ball_radius if problem.ball_radius is not None else 1.0
    report.n_samples = n_samples

    def check(t, dx, dy):
        xs, ys = problem.x0 + dx, problem.x0 + dy
        gaps = np.max(np.abs(xs - ys), axis=1)
        allowance = phi.batch(t) * _sample_finite(
            problem.modulus, gaps, lambda v, q: SolverError(
                f"modulus returned {v} at s={gaps[q]} (t={t[q]})"))
        # x and y states interleaved, so the scalar path calls f(t, x) then f(t, y)
        t2 = np.repeat(t, 2)
        states = np.stack((xs, ys), axis=1).reshape(-1, problem.n)
        vals = np.array([_sample_named(f, t2, f"rhs component {i}", states)
                         for i, f in enumerate(problem.rhs)])  # one row per component
        fx, fy = vals[:, 0::2].T, vals[:, 1::2].T
        slack = _ROUNDING_ULPS * np.spacing(np.abs(fx) + np.abs(fy))
        return np.abs(fx - fy), np.broadcast_to(allowance[:, None], fx.shape), slack

    state = (-r, r, (problem.n,))
    report.violations = _sampled_violations(
        _drawn_blocks(seed, n_samples, (problem.t0, t_end, ()), state, state), check)
    if not report.violations and osgood == "DIVERGENT":
        report.verdict = "OSGOOD-UNIQUE" if problem.phi is None else "MONTEL-TONELLI-UNIQUE"
    return report


@dataclass
class CaratheodoryReport:
    """Sampled check of the domination |f_i(t, x)| <= h_r_i(t) on a ball."""

    passed: bool
    r: float
    n_samples: int
    violations: list = field(default_factory=list)

    def to_dict(self):
        return {
            "passed": self.passed,
            "r": self.r,
            "n_samples": self.n_samples,
            "n_violations": len(self.violations),
            "violations": _listed(self.violations, "bound"),
        }


def caratheodory_bound_check(problem, r, h_r, n_samples=4000, seed=0):
    """Sample |f_i(t,x)| <= h_r_i(t) over the radius-r ball around x0.

    ``h_r`` may be a single callable (shared by all components) or one per
    component.  Violations carry witnesses; the check is sampled evidence.
    It runs in blocks of ``_CERT_BLOCK`` samples, rhs_i then h_r_i for each
    i in turn, with the samples of ``_drawn_blocks``: the same as drawing
    all n_samples times, then all states, from ``default_rng(seed)``.  A
    non-finite rhs or bound value raises ``SolverError``; of
    two in different blocks, the earlier block's is raised, even when it is
    a later component's.  ``r`` must be finite and positive and
    ``n_samples`` an integer >= 1.
    """
    _require_positive("r", r)
    _require_count("n_samples", n_samples)
    if callable(h_r):
        h_r = [h_r] * problem.n
    h_r = list(h_r)
    if len(h_r) != problem.n:
        raise ConfigurationError(f"need {problem.n} domination bounds, got {len(h_r)}")

    def check(t, dx):
        xs = problem.x0 + dx
        lhs, bound = np.empty((2, t.size, problem.n))
        for i, (f, h) in enumerate(zip(problem.rhs, h_r)):
            lhs[:, i] = np.abs(_sample_named(f, t, f"rhs component {i}", xs))
            bound[:, i] = _sample_named(h, t, f"domination bound {i}")
        return lhs, bound, _ROUNDING_ULPS * np.spacing(lhs + np.abs(bound))

    draws = (problem.t0, problem.t0 + problem.horizon, ()), (-r, r, (problem.n,))
    violations = _sampled_violations(_drawn_blocks(seed, n_samples, *draws), check)
    return CaratheodoryReport(
        passed=not violations, r=float(r), n_samples=n_samples, violations=violations
    )
