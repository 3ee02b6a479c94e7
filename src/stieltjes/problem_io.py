"""Problem files: a declarative JSON schema for whole solver runs.

One document defines named derivators, the initial value problem (initial
state, per-component derivator name and right-hand-side expression, and the
optional ball radius / modulus / weight declarations), solver settings, and
output paths.  Keeping problems declarative makes fixtures diffable and
runs reproducible; there is no scripting in the format.

Schema sketch::

    {
      "version": 1,
      "derivators": {
        "g": {"window": [0, 2], "anchor": 0.0,
               "breakpoints": [0, 2], "slopes": [1], "jumps": [[1, 1]]}
      },
      "problem": {
        "t0": 0.0, "T": 2.0, "x0": [1.0],
        "components": [{"derivator": "g", "rhs": "x1"}],
        "ball_radius": 10.0,                  # optional
        "modulus": {"builtin": "omega_k", "k": 1},   # or {"expr": "t"}
        "phi": "1"                             # optional, expression in t
      },
      "solver": {"method": "euler", "n_steps": 1000,
                  "tol": 1e-10, "max_iter": 100},
      "output": {"trace_csv": "trace.csv", "summary_json": "summary.json"}
    }

Expressions use the `expr` grammar; the rhs sees ``t`` and ``x1..xn``,
while ``phi`` and an expression-defined modulus are unary maps written in
the variable ``t``.  Each is compiled once, at load, into an
``expr.ExprFunction``, so the loaded problem speaks the batch protocol
described on ``solver.IVProblem``.  Every block accepts only the keys
shown, so a misspelt key is refused rather than read as absent; output
paths are strings.

Trace CSV columns are ``t, post_jump, x_1..x_n`` with one extra
``post_jump = 1`` row per grid point where any component jumps; floats are
written with 17 significant digits so identical runs produce
byte-identical files.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .derivator import Derivator
from .errors import ConfigurationError, ExprParseError, ModulusOverflowError, ProblemFileError
from .expr import ExprFunction, parse
from .moduli import OsgoodModulus, _omega_k_constants, omega_k_modulus
from .solver import IVProblem

__all__ = [
    "LoadedProblem",
    "load_problem_file",
    "load_derivators",
    "parse_modulus_spec",
    "write_trace_csv",
    "trace_csv_text",
]

_SOLVER_DEFAULTS = {"method": "euler", "n_steps": 1000, "tol": 1e-10, "max_iter": 100}
_OUTPUT_KEYS = ("trace_csv", "summary_json")


@dataclass
class LoadedProblem:
    problem: IVProblem
    derivators_by_name: dict
    method: str
    n_steps: int
    tol: float
    max_iter: int
    trace_csv: str | None
    summary_json: str | None


def _fail(where, message):
    raise ProblemFileError(f"{where}: {message}")


def _refuse_unknown(where, section, known):
    unknown = sorted(set(section) - set(known))
    if unknown:
        _fail(where, f"unknown key(s) {', '.join(map(repr, unknown))}")


def _require(data, key, where, kind=None):
    if key not in data:
        _fail(where, f"missing required key {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        _fail(f"{where}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(data, key, where):
    value = _require(data, key, where)
    if not _is_number(value):
        _fail(f"{where}.{key}", "expected a number")
    if not math.isfinite(float(value)):
        _fail(f"{where}.{key}", "must be finite")
    return float(value)


def load_derivators(doc, where="derivators"):
    block = _require(doc, "derivators", "document", dict)
    out = {}
    for name, spec in block.items():
        if not isinstance(spec, dict):
            _fail(f"{where}.{name}", "expected an object")
        _refuse_unknown(f"{where}.{name}", spec, ("window", "anchor", "breakpoints", "slopes", "jumps"))
        try:
            out[name] = Derivator.from_dict(spec)
        except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
            _fail(f"{where}.{name}", str(exc))
    if not out:
        _fail(where, "at least one derivator must be defined")
    return out


def parse_modulus_spec(spec, where="problem.modulus"):
    """Accepts {"builtin": "omega_k", "k": 1, 2 or 3} or {"expr": "<unary in t>"}."""
    if isinstance(spec, dict) and spec.get("builtin") == "omega_k":
        _refuse_unknown(where, spec, ("builtin", "k"))
        k = spec.get("k")
        if not _is_int(k) or k < 1:
            _fail(where, "omega_k needs an integer k >= 1")
        try:  # from k = 4 on, omega_k's constants overflow double precision
            _omega_k_constants(k)
        except ModulusOverflowError as exc:
            _fail(where, f"omega_k({k}) is not representable: {exc}")
        return omega_k_modulus(k)
    if isinstance(spec, dict) and "expr" in spec:
        _refuse_unknown(where, spec, ("expr",))
        if not isinstance(spec["expr"], str):
            _fail(f"{where}.expr", "expected an expression string")
        try:
            tree = parse(spec["expr"], 0)
        except ExprParseError as exc:
            _fail(where, f"bad modulus expression: {exc}")
        return OsgoodModulus(evaluator=ExprFunction(tree, spec["expr"]), name=spec["expr"])
    _fail(where, 'expected {"builtin": "omega_k", "k": ...} or {"expr": "..."}')


def _unary_in_t(src, where):
    try:
        tree = parse(src, 0)
    except ExprParseError as exc:
        _fail(where, f"bad expression: {exc}")
    return ExprFunction(tree, src)


def load_problem_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be an object")
    _refuse_unknown("document", doc, ("version", "derivators", "problem", "solver", "output"))
    version = doc.get("version", 1)
    if not _is_int(version) or version != 1:  # true and 1.0 equal 1
        _fail("version", f"unsupported version {version!r}")

    derivators = load_derivators(doc)

    pb = _require(doc, "problem", "document", dict)
    _refuse_unknown("problem", pb, ("t0", "T", "x0", "components", "ball_radius", "modulus", "phi"))
    t0 = _number(pb, "t0", "problem")
    horizon = _number(pb, "T", "problem")
    x0 = _require(pb, "x0", "problem", list)
    if not x0 or not all(_is_number(v) and math.isfinite(v) for v in x0):
        _fail("problem.x0", "expected a nonempty list of finite numbers")
    n = len(x0)

    components = _require(pb, "components", "problem", list)
    if len(components) != n:
        _fail("problem.components", f"expected {n} components to match x0, got {len(components)}")
    comp_derivators = []
    comp_rhs = []
    for i, comp in enumerate(components):
        where = f"problem.components[{i}]"
        if not isinstance(comp, dict):
            _fail(where, "expected an object")
        _refuse_unknown(where, comp, ("derivator", "rhs"))
        gname = _require(comp, "derivator", where, str)
        if gname not in derivators:
            _fail(f"{where}.derivator", f"unknown derivator name {gname!r}")
        comp_derivators.append(derivators[gname])
        src = _require(comp, "rhs", where, str)
        try:
            tree = parse(src, n)
        except ExprParseError as exc:
            _fail(f"{where}.rhs", str(exc))
        comp_rhs.append(ExprFunction(tree, src))

    ball = pb.get("ball_radius")
    if ball is not None:
        if not (_is_number(ball) and 0 < ball < math.inf):
            _fail("problem.ball_radius", "expected a positive number")
        ball = float(ball)

    modulus = None
    if "modulus" in pb:
        modulus = parse_modulus_spec(pb["modulus"])
    phi = None
    if "phi" in pb:
        if not isinstance(pb["phi"], str):
            _fail("problem.phi", "expected an expression string")
        phi = _unary_in_t(pb["phi"], "problem.phi")

    try:
        problem = IVProblem(
            t0=t0, horizon=horizon, x0=x0,
            derivators=comp_derivators, rhs=comp_rhs,
            ball_radius=ball, modulus=modulus, phi=phi,
        )
    except ConfigurationError as exc:
        raise ProblemFileError(f"problem: {exc}") from exc

    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        _fail("solver", "expected an object")
    _refuse_unknown("solver", solver, _SOLVER_DEFAULTS)
    sv = {**_SOLVER_DEFAULTS, **solver}
    method = sv["method"]
    if method not in ("euler", "picard"):
        _fail("solver.method", f"expected 'euler' or 'picard', got {method!r}")
    n_steps = sv["n_steps"]
    if not _is_int(n_steps) or n_steps < 1:
        _fail("solver.n_steps", "expected an integer >= 1")
    tol = sv["tol"]
    if not (_is_number(tol) and 0 < tol < math.inf):
        _fail("solver.tol", "expected a positive number")
    max_iter = sv["max_iter"]
    if not _is_int(max_iter) or max_iter < 1:
        _fail("solver.max_iter", "expected an integer >= 1")

    out = doc.get("output", {})
    if not isinstance(out, dict):
        _fail("output", "expected an object")
    _refuse_unknown("output", out, _OUTPUT_KEYS)
    for key in _OUTPUT_KEYS:
        if out.get(key) is not None and not isinstance(out[key], str):
            _fail(f"output.{key}", "expected a path string")

    return LoadedProblem(
        problem=problem,
        derivators_by_name=derivators,
        method=method,
        n_steps=n_steps,
        tol=float(tol),
        max_iter=max_iter,
        trace_csv=out.get("trace_csv"),
        summary_json=out.get("summary_json"),
    )


# Rows are rendered this many grid points at a time, with one ``%`` per
# block; the writer writes each block as it renders it, so it holds one
# block at once.
_CSV_BLOCK = 256


def _csv_blocks(trace, problem):
    """The pieces of ``trace_csv_text``: the header, once the jump rows are
    known, then the rows of ``_CSV_BLOCK`` grid points each."""
    grid, values, rights = trace.grid, trace.values, trace.right_values
    jumps_here = np.zeros(grid.size, dtype=bool)
    for g in problem.derivators:  # the grid ascends, as a solver's does
        g._require_inside(grid[:-1], include_right=False)
        at = np.searchsorted(grid[:-1], g.jump_points)
        at = at[at < grid.size - 1]  # a prefix: the jump points ascend
        jumps_here[at[grid[at] == g.jump_points[:at.size]]] = True
    row, jump_row = (f"%.17g,{flag}" + ",%.17g" * problem.n + "\n" for flag in (0, 1))
    yield "t,post_jump," + ",".join(f"x_{i + 1}" for i in range(problem.n)) + "\n"
    for lo in range(0, grid.size, _CSV_BLOCK):
        rows = slice(lo, lo + _CSV_BLOCK)
        table = np.column_stack((grid[rows], values[rows]))
        at = np.flatnonzero(jumps_here[rows])
        if at.size:  # each post-jump row straight after its jump row
            posts = np.column_stack((grid[rows][at], rights[rows][at]))
            table = np.insert(table, at + 1, posts, axis=0)
            fmt = "".join([row + jump_row if jump else row for jump in jumps_here[rows].tolist()])
        else:
            fmt = row * len(table)
        yield fmt % tuple(table.ravel().tolist())


def trace_csv_text(trace, problem):
    """Render a trace as CSV: t, post_jump, x_1..x_n.

    Every grid point yields one ``post_jump = 0`` row; grid points where
    any component derivator jumps yield an extra ``post_jump = 1`` row with
    the post-impulse state, immediately after.  Each float is written as
    ``"%.17g" % v``, which is ``format(v, ".17g")``: each block of
    ``_CSV_BLOCK`` grid points is one ``%`` of a format of such fields and
    the literal flags, applied to the block's floats, row after row.
    """
    return "".join(_csv_blocks(trace, problem))


def write_trace_csv(trace, problem, path):
    """Write ``trace_csv_text(trace, problem)`` to ``path``, one block at a time."""
    blocks = _csv_blocks(trace, problem)
    header = next(blocks)  # after the jump rows: a trace outside a window leaves no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        fh.writelines(blocks)
