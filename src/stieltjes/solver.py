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

``residual`` measures how well any trace satisfies the integral equation;
``apriori_bound`` and ``uniqueness_certificate`` implement the growth-bound
and uniqueness machinery built on Osgood moduli, and
``horizon_for_ball`` searches for a horizon on which the integral operator
provably maps the domain ball into itself.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from numbers import Integral
from operator import sub

import numpy as np

from .derivative import IndefiniteIntegral
from .derivator import Derivator, sum_derivators
from .errors import (
    BoundInapplicableError,
    ConfigurationError,
    DomainExitError,
    IntegrandError,
    NoCertifiedHorizonError,
    NonConvergenceError,
    SolverError,
)
from .expr import _SCALAR, ExprFunction, VarX, _define, _source, _walk
from .measure import QuadratureConfig, _cumulative, _gl_nodes, _gl_rule, _sample_finite, integrate
from .moduli import OmegaTransform, OsgoodModulus, bihari_bound, osgood_check

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

_LIGHT_QUAD = QuadratureConfig(order=8, panels=8)
# Gauss-Legendre nodes per grid cell (and slope segment) of the integral map
_GRID_QUAD_ORDER = 6


def _require_positive(name, value):
    """Raise ``ConfigurationError`` unless ``value`` is finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")


def _require_count(name, value):
    """Raise ``ConfigurationError`` unless ``value`` is an integer >= 1."""
    if not (isinstance(value, Integral) and value >= 1):
        raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")


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
    identically one.

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
    and errors are those of the scalar call; any other rhs is called.
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
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "horizon", float(self.horizon))
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "derivators", tuple(self.derivators))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if not math.isfinite(self.t0):
            raise ConfigurationError(f"t0 must be finite, got {self.t0}")
        _require_positive("horizon", self.horizon)
        if not np.all(np.isfinite(x0)):
            raise ConfigurationError(f"x0 must be finite, got {x0}")
        n = x0.size
        if n == 0:
            raise ConfigurationError("x0 must have at least one component")
        if len(self.derivators) != n or len(self.rhs) != n:
            raise ConfigurationError(
                f"need {n} derivators and rhs components, got "
                f"{len(self.derivators)} and {len(self.rhs)}"
            )
        end = self.t0 + self.horizon
        for i, g in enumerate(self.derivators):
            if not isinstance(g, Derivator):
                raise ConfigurationError(f"derivators[{i}] is not a Derivator")
            left, right = g.window
            if self.t0 < left or end > right:
                raise ConfigurationError(
                    f"derivators[{i}] window {g.window} does not contain "
                    f"[{self.t0}, {end}]"
                )
        if self.ball_radius is not None:
            _require_positive("ball_radius", self.ball_radius)

    @property
    def n(self):
        return self.x0.size

    @cached_property
    def _center(self):
        return tuple(self.x0.tolist())

    @cached_property
    def _euler_steps(self):
        """The step loop of ``solve_euler`` for this problem, compiled on first use."""
        return _define(_euler_source(self), "steps", _SCALAR, zip=zip, isfinite=math.isfinite,
                       rhs_error=_rhs_error, check_ball=_check_ball)

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
    residual, for Picard traces the sup-norm change at acceptance.
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
    sigma = problem.horizon if sigma is None else float(sigma)
    if not 0 < sigma <= problem.horizon:
        raise ConfigurationError(f"sigma must be in (0, {problem.horizon}]")
    _require_count("n_steps", n_steps)
    t0 = problem.t0
    end = t0 + sigma
    parts = [np.linspace(t0, end, n_steps + 1)]
    for g in problem.derivators:
        pts = g.jump_points
        parts.append(pts[(pts >= t0) & (pts < end)])
    return np.unique(np.concatenate(parts))


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
    """Per-grid pre-computation shared by both solvers and the residual map."""

    def __init__(self, problem, grid):
        self.problem = problem
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 2 or not np.all(np.diff(self.grid) > 0):
            raise ConfigurationError("grid must be strictly increasing with >= 2 points")
        n = problem.n
        N = self.grid.size - 1
        self.n_cells = N

        # jumps of each component at each grid point; the closing point gets
        # none (the solution on the closed interval is the left limit there).
        # An atom between grid points would be lost from both the jumps and
        # the continuous increments, so such grids are refused.
        self.deltas = np.zeros((N + 1, n))
        for i, g in enumerate(problem.derivators):
            self.deltas[:-1, i] = g.jump(self.grid[:-1])
            pts = g.jump_points
            inside = pts[(pts >= self.grid[0]) & (pts < self.grid[-1])]
            missed = inside[~np.isin(inside, self.grid)]
            if missed.size:
                raise ConfigurationError(
                    f"grid misses the atom of derivators[{i}] at t={missed[0]}; "
                    "build_grid includes every atom"
                )
        self.atom_rows = np.flatnonzero(np.any(self.deltas > 0, axis=1))

        # continuous-part increments per cell and component
        self.cont_inc = np.empty((N, n))
        for i, g in enumerate(problem.derivators):
            vals = g.continuous(self.grid)
            self.cont_inc[:, i] = np.diff(vals)

    @cached_property
    def quad(self):
        """Flattened Gauss-Legendre nodes of each component's continuous part,
        built on first use; cells are intersected with the slope segments of g_i."""
        order, N = _GRID_QUAD_ORDER, self.n_cells
        rule = QuadratureConfig(order=order, panels=1)
        quad = []
        for g in self.problem.derivators:
            bp = g.breakpoints
            inner = bp[(bp > self.grid[0]) & (bp < self.grid[-1])]
            edges = np.unique(np.concatenate((self.grid, inner)))
            lo, hi = edges[:-1], edges[1:]
            slope = g.slopes[g._segment(lo)]
            keep = slope > 0.0
            lo, hi, slope = lo[keep], hi[keep], slope[keep]
            cell = np.clip(np.searchsorted(self.grid, lo, side="right") - 1, 0, N - 1)
            ts, half = _gl_nodes(lo, hi, rule)
            ws = (slope[:, None] * half * _gl_rule(order)[1]).ravel()
            quad.append((ts, ws, np.repeat(cell, order)))
        return quad

    def atom_rhs(self, values):
        """The rhs at every atom row ``k``, with the pre-jump state ``values[k]``."""
        rhs = self.problem.eval_rhs
        return [rhs(float(self.grid[k]), tuple(values[k].tolist())) for k in self.atom_rows]

    def impulse_rights(self, values, atom_f):
        """Post-jump states: right[k] = value[k] + f(t_k, value[k]) * delta_k.

        ``atom_f`` is ``atom_rhs(values)``.
        """
        rights = values.copy()
        for k, fx in zip(self.atom_rows, atom_f):
            rights[k] = values[k] + fx * self.deltas[k]
        return rights

    def integral_map(self, values, rights, atom_f):
        """One application of x -> x0 + integral of f(s, x(s)) dg on the grid.

        The iterate is interpolated linearly inside each cell from the
        post-jump state at the left node to the value at the right node.
        ``atom_f`` is ``atom_rhs(values)``.
        """
        problem = self.problem
        N, n = self.n_cells, problem.n
        cells_total = np.zeros((N, n))

        # atomic contributions use the pre-jump state at the atom
        for k, fx in zip(self.atom_rows, atom_f):
            cells_total[k] += fx * self.deltas[k]

        widths = np.diff(self.grid)
        for i in range(n):
            ts, ws, cell_idx = self.quad[i]
            if ts.size == 0:
                continue
            # ``take`` gathers far faster than fancy indexing on these sizes
            frac = (ts - self.grid.take(cell_idx)) / widths.take(cell_idx)
            left = rights.take(cell_idx, axis=0)
            states = left + (values.take(cell_idx + 1, axis=0) - left) * frac[:, None]
            contrib = _sample_finite(problem.rhs[i], ts, lambda v, q: SolverError(
                f"rhs component {i} returned {v} at t={ts[q]} during quadrature"
            ), xs=states)
            np.add.at(cells_total[:, i], cell_idx, contrib * ws)

        out = np.empty((N + 1, n))
        out[0] = problem.x0
        np.cumsum(cells_total, axis=0, out=cells_total)
        out[1:] = problem.x0 + cells_total
        return out


def _euler_source(problem):
    """The source of ``steps(problem, ts, deltas, incs, jumps)``, the Euler step loop.

    The state components are the locals ``s0, s1, ...``.  The body of each
    ``ExprFunction`` rhs is written inline by the expression emitter, reading
    t and the state from the locals; any other rhs is called with a float t
    and the state tuple, and its value checked as ``eval_rhs`` checks it.
    """
    n = problem.n

    def names(letter):
        return ", ".join(f"{letter}{j}" for j in range(n)) + ","

    row = f"({names('s')})"
    reads = {"t": "t", "x<k>": "s{j}", "x": row}  # Python floats already: no ``real``
    rhs = []
    for i, f in enumerate(problem.rhs):
        # a tree that reads past x_n is called: its IndexError guard reports it
        if type(f) is ExprFunction and all(v.index <= n for v in _walk(f.tree) if isinstance(v, VarX)):
            rhs += _source(f.tree, _SCALAR, f"v{i}_", reads, f"f{i} = {{}}")
        else:
            rhs += [f"f{i} = real(rhs{i}(t, {row}))", f"if not isfinite(f{i}): raise rhs_error({i}, f{i}, t)"]

    def ball(at):
        if problem.ball_radius is None:
            return []
        gaps = ", ".join(f"abs(s{j} - z{j})" for j in range(n))
        return [f"if {f'max({gaps})' if n > 1 else gaps} > radius: check_ball(problem, {row}, {at})"]

    def step(by):
        return [f"s{j} = s{j} + f{j} * {by}{j}" for j in range(n)]

    def block(indent, lines):
        return [" " * indent + line for line in lines]

    return "\n".join([
        "def steps(problem, ts, deltas, incs, jumps):",
        f"    {names('rhs')} = problem.rhs",
        f"    {names('z')} = problem._center",
        "    radius = problem.ball_radius",
        f"    {names('s')} = problem._center",
        f"    values, rights = [{row}], []",
        f"    for t, t_next, ({names('d')}), ({names('c')}), jump in zip(ts, ts[1:], deltas, incs, jumps):",
        *block(8, rhs),
        "        if jump:",  # the impulse, with the pre-jump state
        *block(12, [*step("d"), *ball("t"), *rhs]),
        f"        rights.append({row})",
        *block(8, [*step("c"), *ball("t_next")]),
        f"        values.append({row})",
        f"    rights.append({row})",
        "    return values, rights",
        "",
    ])


def solve_euler(problem, grid, compute_residual=True):
    """Forward Euler in the derivator increments, impulse-first.

    Per step ``t_k -> t_{k+1}``: all components apply their impulse with the
    shared pre-jump state, then the continuous sub-step uses the post-jump
    state and the increments of the continuous parts.  Pure-jump steps are
    exact by construction.  The steps run on Python floats, in one loop
    emitted and compiled for the problem at its first solve: the state
    components are locals, ``expr`` right-hand sides are written out inline,
    and any other rhs is called with a float ``t`` and the state as a tuple
    of floats (see ``IVProblem``).  The rows are stacked into arrays once, at
    the end.
    """
    data = _GridData(problem, grid)
    grid = data.grid
    ts = grid.tolist()
    jumps_at = np.any(data.deltas > 0, axis=1).tolist()
    # rows as tuples from column lists: a list per row would make the
    # garbage collector sweep the whole heap while the loop runs
    deltas, incs = zip(*data.deltas.T.tolist()), zip(*data.cont_inc.T.tolist())
    n = problem.n
    values, rights = (
        np.fromiter(chain.from_iterable(rows), float, n * len(rows)).reshape(-1, n)
        for rows in problem._euler_steps(problem, ts, deltas, incs, jumps_at)
    )

    res = None
    if compute_residual:
        mapped = data.integral_map(values, rights, data.atom_rhs(values))
        res = np.max(np.abs(values - mapped), axis=0)
    return SolutionTrace(
        grid=grid, values=values, right_values=rights, method="euler", residual=res
    )


def solve_picard(problem, grid, tol=1e-10, max_iter=100, initial=None):
    """Fixed-point iteration of the integral-equation map on the grid.

    Starts from the constant initial iterate (or ``initial``: a trace or an
    ``(N+1, n)`` array of grid values, e.g. an Euler warm start) and stops
    when the sup-norm change of the grid values drops to ``tol``; the
    post-jump states of the returned trace satisfy the impulse relation
    exactly with the accepted values.  ``tol`` must be finite and positive
    and ``max_iter`` an integer >= 1, or ``ConfigurationError`` is raised.
    """
    _require_positive("tol", tol)
    _require_count("max_iter", max_iter)
    data = _GridData(problem, grid)
    grid = data.grid
    N, n = data.n_cells, problem.n

    if initial is None:
        values = np.tile(problem.x0, (N + 1, 1))
    else:
        values = np.array(getattr(initial, "values", initial), dtype=float)
        if values.shape != (N + 1, n):
            raise ConfigurationError(
                f"initial iterate must have shape {(N + 1, n)}, got {values.shape}"
            )
    # the rhs at the atoms serves both the impulses and the next map
    atom_f = data.atom_rhs(values)
    rights = data.impulse_rights(values, atom_f)
    change = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_values = data.integral_map(values, rights, atom_f)
        change = np.max(np.abs(new_values - values), axis=0)
        values = new_values
        atom_f = data.atom_rhs(values)
        rights = data.impulse_rights(values, atom_f)
        # one reduction per array; fmax passes over NaN, as the row test does
        if problem.ball_radius is not None and np.fmax(
            np.fmax.reduce(np.abs(values - problem.x0), axis=None),
            np.fmax.reduce(np.abs(rights - problem.x0), axis=None),
        ) > problem.ball_radius:
            # the first row outside, its pre-jump state before its post-jump one
            dev = np.maximum(
                np.max(np.abs(values - problem.x0), axis=1),
                np.max(np.abs(rights - problem.x0), axis=1),
            )
            bad = np.flatnonzero(dev > problem.ball_radius)
            if bad.size:
                _check_ball(problem, values[bad[0]], float(grid[bad[0]]))
                _check_ball(problem, rights[bad[0]], float(grid[bad[0]]))
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
    """Per-component max deviation of a trace from the integral equation."""
    data = _GridData(problem, trace.grid)
    mapped = data.integral_map(trace.values, trace.right_values, data.atom_rhs(trace.values))
    return np.max(np.abs(trace.values - mapped), axis=0)


class _One:
    """The weight phi = 1 of a problem that declares none."""

    def __call__(self, t):
        return 1.0

    def batch(self, ts):
        return np.ones(len(ts))


def _phi_or_one(problem):
    return _One() if problem.phi is None else problem.phi


class _Nonnegative:
    """A weight phi that refuses, with ``IntegrandError``, a sample that is not
    finite and nonnegative: the growth bounds check phi on their integrals' samples."""

    def __init__(self, phi):
        self.phi = phi

    def __call__(self, t):
        return float(self.batch(np.array([float(t)]))[0])

    def batch(self, ts):
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
    """``s -> max_i |f_i(s, x0)|`` over some rhs components; NaN propagates."""

    def __init__(self, rhs, x0):
        self.rhs = tuple(rhs)
        self.x0 = x0  # a tuple of floats

    def __call__(self, s):
        return float(np.max(np.abs([float(f(float(s), self.x0)) for f in self.rhs])))

    def batch(self, ss):
        xs = np.broadcast_to(self.x0, (len(ss), len(self.x0)))
        out = None
        for f in self.rhs:
            batch = getattr(f, "batch", None)
            vals = None if batch is None else batch(ss, xs)
            if vals is None:
                return None
            out = np.abs(vals) if out is None else np.maximum(out, np.abs(vals))
        return out


def horizon_for_ball(problem):
    """Largest grid-searched sigma for which the ball-invariance inequality holds.

    The criterion is strict:  omega(R) * (phi-weighted measure of
    [t0, t0+sigma) under the sum derivator)  plus the accumulated size of
    the rhs at x0 must stay below the ball radius R.  Sufficient, not
    necessary; failure for every tested sigma raises.  The candidates are
    the 64 multiples k * horizon / 64, k = 64..1, all read from one
    ``_cumulative`` table per integral over [t0, t0+horizon).  A declared
    phi must be finite and nonnegative at every sample (``_Nonnegative``).
    """
    if problem.ball_radius is None or problem.modulus is None:
        raise ConfigurationError("horizon_for_ball needs ball_radius and modulus")
    R = problem.ball_radius
    omega_R = float(problem.modulus(R))
    ghat = sum_derivators(problem.derivators)
    t0 = problem.t0

    sigmas = np.linspace(problem.horizon, problem.horizon / 64, 64)
    ends = t0 + sigmas
    weighted = _cumulative(ghat, _Nonnegative(_phi_or_one(problem)), t0, ends, _LIGHT_QUAD)
    accumulated = sum(
        _cumulative(g, _AbsRhsAtX0([f], problem._center), t0, ends, _LIGHT_QUAD)
        for g, f in zip(problem.derivators, problem.rhs)
    )
    inside = np.flatnonzero(omega_R * weighted + accumulated < R)
    if inside.size:
        return float(sigmas[inside[0]])
    raise NoCertifiedHorizonError(
        f"no sigma in (0, {problem.horizon}] satisfies the ball-invariance "
        f"inequality for radius {R}"
    )


def _weight_integral(phi, ghat, t0, end):
    """The ``IndefiniteIntegral`` of phi from t0 against ghat cut to [t0, end].

    The cut keeps the breakpoints, slopes and jumps strictly inside, so phi
    is not sampled past ``end``, and leaves out the atom at t0: it would add
    phi(t0) * omega(|x(t0) - x0|) * jump = 0 to the Bihari integral, as
    x(t0) = x0 and omega(0) = 0.
    """
    bp, jp = ghat.breakpoints, ghat.jump_points
    edges = np.concatenate(([t0], bp[(bp > t0) & (bp < end)], [end]))
    slopes = ghat.slopes[ghat._segment(edges[:-1])]
    inside = (jp > t0) & (jp < end)
    cut = Derivator((t0, end), breakpoints=edges, slopes=slopes,
                    jumps=zip(jp[inside], ghat.jump_sizes[inside]))
    return IndefiniteIntegral(phi, cut, t0)


@dataclass
class AprioriBound:
    """Growth bound: every solution satisfies ||x(t) - x0|| <= bound(t) on [t0, t1].

    Built from the Bihari-type inequality; ``zero_kappa`` marks the
    degenerate case of a rhs vanishing along x0, where the bound collapses
    to zero.
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
    """The nondecreasing bound dominating every solution near t0.

    Needs a declared Osgood modulus (the osgood check at u0 = 1 must say
    DIVERGENT) and works on the largest tested sub-horizon [t0, t1] on which
    the Bihari precondition holds: Omega(kappa(t1)) plus the weighted-measure
    growth must stay below the top of the transform table, which is widened
    by 10^4 at a time up to r = 1e120.  The candidates are t1 = t0 + k *
    horizon / 16, k = 16..1, and kappa is read for all of them from one
    ``_cumulative`` table over [t0, t0+horizon).  The weighted measure h is
    an ``IndefiniteIntegral`` of phi, exact to rounding (``_weight_integral``);
    phi must be finite and nonnegative at its samples and at an atom at t0.
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
    end = t0 + problem.horizon
    ghat = sum_derivators(problem.derivators)
    phi = _Nonnegative(_phi_or_one(problem))
    if ghat.jump(t0) > 0.0:
        phi.batch(np.array([t0]))  # h leaves out the atom at t0; phi must be >= 0 there too
    h = _weight_integral(phi, ghat, t0, end)
    biggest = _AbsRhsAtX0(problem.rhs, problem._center)

    ends = np.linspace(end, t0 + problem.horizon / 16, 16)
    kappas = _cumulative(ghat, biggest, t0, ends, _LIGHT_QUAD)
    for t1, kappa in zip(ends.tolist(), kappas.tolist()):
        if kappa <= 0.0:
            return AprioriBound(t0=t0, t1=t1, kappa=0.0, bound=lambda t: 0.0, zero_kappa=True)
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


@dataclass
class UniquenessReport:
    """Sampled uniqueness certificate; evidence, not proof.

    ``verdict`` is OSGOOD-UNIQUE when the declared weight is identically
    one, MONTEL-TONELLI-UNIQUE when an integrable weight was declared, and
    UNVERIFIED when any sampled inequality fails or the osgood check is
    not DIVERGENT.
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
            "violations": [
                {"t": t, "component": i, "lhs": lhs, "rhs": rhs}
                for (t, i, lhs, rhs) in self.violations[:10]
            ],
            "phi_integrals": list(self.phi_integrals),
        }


# Samples per batched block of the uniqueness certificate: large enough that
# per-call overhead vanishes, small enough that the temporaries of a block
# stay far below the size of the drawn samples.
_CERT_BLOCK = 1024
_ROUNDING_ULPS = 8  # a sampled inequality fails beyond this many ulps of the values compared


def _modulus_violations(problem, phi, ts, xs, ys):
    """Violations of |f_i(t,x) - f_i(t,y)| <= phi(t) omega(|x-y|), sample-major."""
    n = problem.n
    allowance = _sample_finite(phi, ts, lambda v, q: SolverError(
        f"phi returned {v} at t={ts[q]}"
    ))
    gaps = np.max(np.abs(xs - ys), axis=1)
    allowance = allowance * _sample_finite(problem.modulus, gaps, lambda v, q: SolverError(
        f"modulus returned {v} at s={gaps[q]} (t={ts[q]})"
    ))
    # x and y states interleaved, so the scalar path calls f(t, x) then f(t, y)
    t2 = np.repeat(ts, 2)
    states = np.stack((xs, ys), axis=1).reshape(-1, n)
    lhs = np.empty((ts.size, n))
    slack = np.empty((ts.size, n))
    for i, f in enumerate(problem.rhs):
        vals = _sample_finite(f, t2, lambda v, q: SolverError(
            f"rhs component {i} returned {v} at t={t2[q]}"
        ), xs=states)
        lhs[:, i] = np.abs(vals[0::2] - vals[1::2])
        slack[:, i] = _ROUNDING_ULPS * np.spacing(np.abs(vals[0::2]) + np.abs(vals[1::2]))
    bad = lhs > allowance[:, None] + slack
    return [
        (float(ts[q]), int(i), float(lhs[q, i]), float(allowance[q]))
        for q, i in zip(*np.nonzero(bad))
    ]


def uniqueness_certificate(problem, n_samples=10_000, seed=0):
    """Spot-check the modulus-of-continuity inequality behind uniqueness.

    Verifies (a) the declared modulus passes the osgood check at the two
    anchors u0 = 1 and u0 = 0.01, (b)
    ``|f_i(t,x) - f_i(t,y)| <= phi(t) * omega(||x-y||)`` on a randomized
    sample of the domain, (c) the weight is integrable against
    every component derivator.  All three are sampled evidence; the report
    says so.  The samples are drawn at once and evaluated in blocks of
    ``_CERT_BLOCK``; violations are listed in (sample, component) order.  A
    non-finite value of a rhs, phi or the modulus raises ``SolverError``
    naming it and the sample time.  ``n_samples`` must be an integer >= 1:
    no samples would be no evidence.
    """
    if problem.modulus is None:
        raise ConfigurationError("uniqueness_certificate needs a declared modulus")
    _require_count("n_samples", n_samples)
    report = UniquenessReport(verdict="UNVERIFIED")
    for u0 in (1.0, 0.01):
        report.osgood_verdicts[u0] = osgood_check(problem.modulus, u0).verdict

    phi = _phi_or_one(problem)
    t_end = problem.t0 + problem.horizon
    try:
        report.phi_integrals = [
            integrate(g, phi, problem.t0, t_end, _LIGHT_QUAD)
            for g in problem.derivators
        ]
    except IntegrandError:
        return report

    rng = np.random.default_rng(seed)
    r = problem.ball_radius if problem.ball_radius is not None else 1.0
    ts = rng.uniform(problem.t0, t_end, size=n_samples)
    xs = problem.x0 + rng.uniform(-r, r, size=(n_samples, problem.n))
    ys = problem.x0 + rng.uniform(-r, r, size=(n_samples, problem.n))
    report.n_samples = n_samples

    for start in range(0, n_samples, _CERT_BLOCK):
        block = slice(start, start + _CERT_BLOCK)
        report.violations.extend(
            _modulus_violations(problem, phi, ts[block], xs[block], ys[block])
        )

    if report.violations or any(
        v != "DIVERGENT" for v in report.osgood_verdicts.values()
    ):
        report.verdict = "UNVERIFIED"
    elif problem.phi is None:
        report.verdict = "OSGOOD-UNIQUE"
    else:
        report.verdict = "MONTEL-TONELLI-UNIQUE"
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
            "violations": [
                {"t": t, "component": i, "lhs": lhs, "bound": b}
                for (t, i, lhs, b) in self.violations[:10]
            ],
        }


def caratheodory_bound_check(problem, r, h_r, n_samples=4000, seed=0):
    """Sample |f_i(t,x)| <= h_r_i(t) over the radius-r ball around x0.

    ``h_r`` may be a single callable (shared by all components) or one per
    component.  Violations carry witnesses; the check is sampled evidence.
    A non-finite rhs or bound value raises ``SolverError``.  ``r`` must be
    finite and positive and ``n_samples`` an integer >= 1.
    """
    _require_positive("r", r)
    _require_count("n_samples", n_samples)
    if callable(h_r):
        h_r = [h_r] * problem.n
    h_r = list(h_r)
    if len(h_r) != problem.n:
        raise ConfigurationError(f"need {problem.n} domination bounds, got {len(h_r)}")

    rng = np.random.default_rng(seed)
    ts = rng.uniform(problem.t0, problem.t0 + problem.horizon, size=n_samples)
    xs = problem.x0 + rng.uniform(-r, r, size=(n_samples, problem.n))
    lhs = np.empty((n_samples, problem.n))
    bound = np.empty((n_samples, problem.n))
    for i, (f, h) in enumerate(zip(problem.rhs, h_r)):
        lhs[:, i] = np.abs(_sample_finite(f, ts, lambda v, q: SolverError(
            f"rhs component {i} returned {v} at t={ts[q]}"
        ), xs=xs))
        bound[:, i] = _sample_finite(h, ts, lambda v, q: SolverError(
            f"domination bound {i} returned {v} at t={ts[q]}"
        ))
    bad = lhs > bound + _ROUNDING_ULPS * np.spacing(lhs + np.abs(bound))
    violations = [
        (float(ts[q]), int(i), float(lhs[q, i]), float(bound[q, i]))
        for q, i in zip(*np.nonzero(bad))
    ]
    return CaratheodoryReport(
        passed=not violations, r=float(r), n_samples=n_samples, violations=violations
    )
