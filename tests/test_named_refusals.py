"""Every refusal is a named error: problem files and the public constructors,
fed data with one or two values replaced by what they must refuse, either
build an object that holds only finite numbers or raise a ``StieltjesError``.

The replacements are drawn from a pool of bools, ``None``, strings, numbers
beyond the float range, non-finite and subnormal floats, complex numbers,
nested lists and numpy scalars and arrays; the places are every key and
entry of the data, containers included.  The runs are derandomized, so the
examples are the same on every run.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes import Derivator, StieltjesError
from stieltjes.problem_io import load_problem_file
from stieltjes.solver import IVProblem
from test_problem_io import DOC

# values a JSON document can hold
JSON_POOL = [True, False, None, "", "2", "0.5", 10**400, -10**400, math.nan, math.inf, -math.inf,
             1e-320, 0, -1.0, 2, [], [1.0], [[0.5, 1.0]], [["0.5", 1.0]], {}, {"a": 1.0}]
# and values only a caller of the constructors can pass
POOL = JSON_POOL + [1j, 1 + 0j, np.float32(0.5), np.float64(math.nan), np.int64(2), np.bool_(True),
                    np.array(1.0), np.ones((2, 2)), np.array([0.25, 0.5]), b"1", (0.5, 1.0)]

FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _paths(node, prefix=()):
    """The path (keys and indices) of every value under ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _holds(node, key):
    """Whether ``node`` is a dict or a list of the data with a value at ``key``."""
    if isinstance(node, list):
        return isinstance(key, int) and key < len(node)
    return isinstance(node, dict) and key in node


def _mutated(base, changes):
    """A deep copy of ``base`` with each (path, value) of ``changes`` applied; a path that an
    earlier change has cut is skipped."""
    data = copy.deepcopy(base)
    for path, value in changes:
        node = data
        for key in path[:-1]:
            node = node[key] if _holds(node, key) else None
        if _holds(node, path[-1]):
            node[path[-1]] = copy.deepcopy(value)
    return data


def _changes(base, pool):
    return st.lists(st.tuples(st.sampled_from(list(_paths(base))), st.sampled_from(pool)),
                    min_size=1, max_size=2)


def _finite(*values):
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


def _finite_derivator(g):
    return _finite(g.window, g.anchor, g.breakpoints, g.slopes, g.jump_points, g.jump_sizes)


def _finite_problem(p):
    return (_finite(p.t0, p.horizon, p.x0) and (p.ball_radius is None or _finite(p.ball_radius))
            and all(_finite_derivator(g) for g in p.derivators))


DERIVATOR_ARGS = {"window": [0.0, 1.0], "breakpoints": [0.0, 0.5, 1.0], "slopes": [1.0, 2.0],
                  "jumps": [[0.25, 0.5], [0.75, 0.1]], "anchor": 0.0}
_G = Derivator((-1.0, 2.0))
PROBLEM_ARGS = {"t0": 0.0, "horizon": 1.0, "x0": [1.0, -0.5], "ball_radius": 10.0}


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


@FUZZ
@given(changes=_changes(DOC, JSON_POOL))
def test_a_problem_file_loads_or_is_refused_by_name(problem_path, changes):
    problem_path.write_text(json.dumps(_mutated(DOC, changes)), encoding="utf-8")
    try:
        loaded = load_problem_file(problem_path)
    except StieltjesError:
        return
    assert _finite_problem(loaded.problem)


@FUZZ
@given(changes=_changes(DERIVATOR_ARGS, POOL))
def test_a_derivator_builds_or_is_refused_by_name(changes):
    try:
        g = Derivator(**_mutated(DERIVATOR_ARGS, changes))
    except StieltjesError:
        return
    assert _finite_derivator(g)


@FUZZ
@given(changes=_changes(PROBLEM_ARGS, POOL))
def test_a_problem_builds_or_is_refused_by_name(changes):
    try:
        p = IVProblem(**_mutated(PROBLEM_ARGS, changes), derivators=[_G, _G], rhs=[lambda t, x: 0.0] * 2)
    except StieltjesError:
        return
    assert _finite_problem(p)
