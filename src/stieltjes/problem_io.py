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
shown, so a misspelt key is refused rather than read as absent, and output
paths are strings.  Numbers are refused by the constructors they feed,
``Derivator`` and ``IVProblem``, and the refusal names the block, as in
``problem: horizon must be ...`` for the file's ``T``.

Trace CSV columns are ``t, post_jump, x_1..x_n`` with one extra
``post_jump = 1`` row per grid point where any component jumps; floats are
written with 17 significant digits so identical runs produce
byte-identical files.
"""

import json
from dataclasses import dataclass

import numpy as np

from .derivator import Derivator
from .errors import (ConfigurationError, ExprParseError, ModulusOverflowError, ProblemFileError,
                     _require_count, _require_positive, _shown)
from .expr import ExprFunction, parse
from .moduli import OsgoodModulus, omega_k_modulus
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


def _block(value, where, known):
    """``value``, which must be an object with no key outside ``known``."""
    if not isinstance(value, dict):
        _fail(where, "expected an object")
    unknown = sorted(set(value) - set(known))
    if unknown:
        _fail(where, f"unknown key(s) {', '.join(map(repr, unknown))}")
    return value


def _require(data, key, where, kind=None):
    if key not in data:
        _fail(where, f"missing required key {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        _fail(f"{where}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _checked(require, value, where):
    """``value`` if ``require``, a check of ``errors``, passes it; its refusal words the file's."""
    try:
        require(where, value)
    except ConfigurationError as exc:
        raise ProblemFileError(str(exc)) from None
    return value


def _expression(src, n, where, bad=None):
    """``src``, an expression string, compiled over t and x1..xn as an ``ExprFunction``;
    a parse failure is refused as ``bad``, by default ``"<where>: bad expression"``."""
    if not isinstance(src, str):
        _fail(where, "expected an expression string")
    try:
        return ExprFunction(parse(src, n), src)
    except ExprParseError as exc:
        _fail(bad or f"{where}: bad expression", exc)


def load_derivators(doc, where="derivators"):
    block = _require(doc, "derivators", "document", dict)
    out = {}
    for name, spec in block.items():
        at = f"{where}.{name}"
        _block(spec, at, ("window", "anchor", "breakpoints", "slopes", "jumps"))
        try:
            out[name] = Derivator.from_dict(spec)
        except (ConfigurationError, KeyError) as exc:
            _fail(at, str(exc))
    if not out:
        _fail(where, "at least one derivator must be defined")
    return out


def parse_modulus_spec(spec, where="problem.modulus"):
    """Accepts {"builtin": "omega_k", "k": 1, 2 or 3} or {"expr": "<unary in t>"}."""
    if isinstance(spec, dict) and spec.get("builtin") == "omega_k":
        k = _block(spec, where, ("builtin", "k")).get("k")
        try:
            return omega_k_modulus(k)
        except (ConfigurationError, ModulusOverflowError) as exc:  # k >= 4 overflows
            _fail(where, f"omega_k({_shown(k)}): {exc}")
    if isinstance(spec, dict) and "expr" in spec:
        src = _block(spec, where, ("expr",))["expr"]
        evaluator = _expression(src, 0, f"{where}.expr", f"{where}: bad modulus expression")
        return OsgoodModulus(evaluator=evaluator, name=src)
    _fail(where, 'expected {"builtin": "omega_k", "k": ...} or {"expr": "..."}')


def load_problem_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # a ValueError: not JSON, not UTF-8, or too long a number
        raise ProblemFileError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be an object")
    _block(doc, "document", ("version", "derivators", "problem", "solver", "output"))
    version = doc.get("version", 1)
    if type(version) is not int or version != 1:  # true and 1.0 equal 1
        _fail("version", f"unsupported version {version!r}")

    derivators = load_derivators(doc)

    pb = _block(_require(doc, "problem", "document"), "problem",
                ("t0", "T", "x0", "components", "ball_radius", "modulus", "phi"))
    x0 = _require(pb, "x0", "problem", list)
    n = len(x0)

    components = _require(pb, "components", "problem", list)
    if len(components) != n:
        _fail("problem.components", f"expected {n} components to match x0, got {len(components)}")
    comp_derivators, comp_rhs = [], []
    for i, comp in enumerate(components):
        where = f"problem.components[{i}]"
        _block(comp, where, ("derivator", "rhs"))
        gname = _require(comp, "derivator", where, str)
        if gname not in derivators:
            _fail(f"{where}.derivator", f"unknown derivator name {gname!r}")
        comp_derivators.append(derivators[gname])
        comp_rhs.append(_expression(_require(comp, "rhs", where), n, f"{where}.rhs"))

    modulus = parse_modulus_spec(pb["modulus"]) if "modulus" in pb else None
    phi = _expression(pb["phi"], 0, "problem.phi") if "phi" in pb else None

    try:
        problem = IVProblem(
            t0=_require(pb, "t0", "problem"), horizon=_require(pb, "T", "problem"), x0=x0,
            derivators=comp_derivators, rhs=comp_rhs,
            ball_radius=pb.get("ball_radius"), modulus=modulus, phi=phi,
        )
    except ConfigurationError as exc:
        raise ProblemFileError(f"problem: {exc}") from exc

    sv = {**_SOLVER_DEFAULTS, **_block(doc.get("solver", {}), "solver", _SOLVER_DEFAULTS)}
    method = sv["method"]
    if method not in ("euler", "picard"):
        _fail("solver.method", f"expected 'euler' or 'picard', got {method!r}")
    out = _block(doc.get("output", {}), "output", _OUTPUT_KEYS)
    for key in _OUTPUT_KEYS:
        if out.get(key) is not None and not isinstance(out[key], str):
            _fail(f"output.{key}", "expected a path string")

    return LoadedProblem(
        problem=problem,
        derivators_by_name=derivators,
        method=method,
        n_steps=_checked(_require_count, sv["n_steps"], "solver.n_steps"),
        tol=float(_checked(_require_positive, sv["tol"], "solver.tol")),
        max_iter=_checked(_require_count, sv["max_iter"], "solver.max_iter"),
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
        g._require_inside("t", grid[:-1], include_right=False)
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
