"""Every refusal is a named error: problem files and the public constructors,
fed data with one or two values replaced by what they must refuse, either
build an object that holds only finite numbers or raise a ``StieltjesError``.

The replacements are drawn from a pool of bools, ``None``, strings, numbers
beyond the float range, non-finite and subnormal floats, complex numbers,
nested lists and numpy scalars and arrays; the places are every key and
entry of the data, containers included.  The runs are derandomized, so the
examples are the same on every run.  The queries take every value of the
pool at each point argument, one by one, with no search.
"""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes import ConfigurationError, Derivator, StieltjesError
from stieltjes.cli import main
from stieltjes.derivative import IndefiniteIntegral, check_ftc, stieltjes_derivative
from stieltjes.derivator import Classification, from_classification, sum_derivators
from stieltjes.measure import QuadratureConfig, disjointify, integrate, measure_interval
from stieltjes.moduli import (OmegaTransform, OsgoodModulus, bihari_bound, exp_iter, log_iter,
                              omega_k, osgood_check)
from stieltjes.problem_io import load_problem_file
from stieltjes.solver import IVProblem, solve_euler
from stieltjes.topology import check_g_continuity_sampled, is_relatively_continuous
from test_problem_io import DOC, write_doc

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
PROBLEM_ARGS = {"t0": 0.0, "horizon": 1.0, "x0": [1.0, -0.5], "ball_radius": 10.0,
                "derivators": [_G, _G], "rhs": [lambda t, x: 0.0] * 2}


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
        p = IVProblem(**_mutated(PROBLEM_ARGS, changes))
    except StieltjesError:
        return
    assert _finite_problem(p)


# the queries, each with one point argument open: (call, the float it reads the same as every
# other kind of number does, whether that argument takes an array of points too)
G = Derivator((0.0, 2.0), breakpoints=[0.0, 0.5, 2.0], slopes=[1.0, 2.0], jumps=[(1.0, 0.5)])
_f = lambda t: 1.0 + t  # noqa: E731
F = IndefiniteIntegral(_f, G, 0.0)
_C = Classification(constancy=[(0.25, 0.5)], discontinuities=[1.0])
_M = OsgoodModulus(lambda s: s)
_T = OmegaTransform(_M, 1.0)
_B = bihari_bound(1.0, lambda t: t, 0.0, 2.0, _T)
_RULE = QuadratureConfig(order=2, panels=2)
_P = IVProblem(0.0, 2.0, [1.0], [G], [lambda t, x: -x[0]])
QUERIES = {
    "eval": (G.eval, 1.0, True),
    "jump": (G.jump, 1.0, True),
    "eval_right": (G.eval_right, 1.0, True),
    "continuous": (G.continuous, 1.0, True),
    "measure_interval-a": (lambda v: measure_interval(G, v, 2.0), 1.0, False),
    "measure_interval-b": (lambda v: measure_interval(G, 0.0, v), 1.0, False),
    "integrate-a": (lambda v: integrate(G, _f, v, 2.0, quad=_RULE), 1.0, False),
    "integrate-b": (lambda v: integrate(G, _f, 0.0, v, quad=_RULE), 1.0, False),
    "disjointify-end": (lambda v: disjointify([(v, 3.0), (0.5, 1.5)]), 1.0, False),
    "disjointify-cover": (disjointify, None, False),
    "stieltjes_derivative": (lambda v: stieltjes_derivative(_f, G, v), 1.0, False),
    "IndefiniteIntegral-a": (lambda v: IndefiniteIntegral(_f, G, v)(1.5), 1.0, False),
    "IndefiniteIntegral-call": (F, 1.0, True),
    "IndefiniteIntegral-batch": (F.batch, 1.0, True),
    "IndefiniteIntegral-right_limit": (F.right_limit, 1.0, True),
    "check_ftc-a": (lambda v: check_ftc(_f, G, v, 2.0, sample_count=2), 0.0, False),
    "check_ftc-b": (lambda v: check_ftc(_f, G, 0.0, v, sample_count=2), 2.0, False),
    "continuity-t": (lambda v: check_g_continuity_sampled(_f, G, [(v, 0.1)]), 1.0, False),
    "continuity-probes": (lambda v: check_g_continuity_sampled(_f, G, v), None, False),
    "is_relatively_continuous": (lambda v: is_relatively_continuous(G, v), None, False),
    "sum_derivators-entry": (lambda v: sum_derivators([G, v]), None, False),
    "sum_derivators": (sum_derivators, None, False),
    "from_classification-window": (lambda v: from_classification(_C, (v, 2.0)), 0.0, False),
    "Classification-constancy": (lambda v: Classification(constancy=[(v, 0.5)]), 0.0, False),
    "Classification-discontinuity": (lambda v: Classification(discontinuities=[v]), 1.0, False),
    "exp_iter": (lambda v: exp_iter(1, v), 1.0, False),
    "log_iter": (lambda v: log_iter(1, v), 2.0, False),
    "omega_k": (lambda v: omega_k(1, v), 1.0, True),
    "osgood_check": (lambda v: osgood_check(_M, v), 1.0, False),
    "OmegaTransform": (lambda v: OmegaTransform(_M, v).values, 1.0, False),
    "omega_of": (_T.omega_of, 1.0, False),
    "inverse": (_T.inverse, 0.0, True),
    "bihari_bound-a": (lambda v: bihari_bound(1.0, lambda t: t, v, 2.0, _T), 0.0, False),
    "bihari_bound-b": (lambda v: bihari_bound(1.0, lambda t: t, 0.0, v, _T), 2.0, False),
    "bound": (_B, 1.0, True),
    "solve_euler-grid": (lambda v: solve_euler(_P, [0.0, v, 2.0], compute_residual=False), 1.0, False),
}


def _numbers(out):
    """The numbers ``out`` holds, in order, as a flat list of floats."""
    if isinstance(out, Derivator):
        out = out.to_dict()
    elif isinstance(out, Classification):
        out = (out.constancy, out.discontinuities)
    elif dataclasses.is_dataclass(out):
        out = [getattr(out, f.name) for f in dataclasses.fields(out)]
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (list, tuple)):
        return [x for item in out for x in _numbers(item)]
    if isinstance(out, (int, float, np.ndarray, np.number)):
        return np.asarray(out, dtype=float).ravel().tolist()
    return []  # a string, None, a callable or a transform table


@pytest.mark.parametrize("query", QUERIES)
def test_a_query_gives_finite_numbers_or_is_refused_by_name(query):
    call = QUERIES[query][0]
    for value in POOL:
        try:
            out = call(copy.deepcopy(value))
        except StieltjesError:
            continue
        assert all(math.isfinite(x) for x in _numbers(out)), (query, value)


@pytest.mark.parametrize("query", [q for q, (_, point, _) in QUERIES.items() if point is not None])
def test_every_kind_of_number_reads_as_the_float(query):
    call, point, arrays = QUERIES[query]
    expected = _numbers(call(point))
    kinds = [int(point), np.float64(point), np.float32(point)]
    for value in kinds + ([np.array(point), np.array([point])] if arrays else []):
        assert _numbers(call(value)) == expected, (query, value)


def test_a_refused_huge_integer_is_shown_bounded():
    for build in (lambda: Derivator((0, [10**5000])), lambda: Derivator((0, 10**5000)),
                  lambda: QuadratureConfig(order=-10**5000)):
        with pytest.raises(ConfigurationError) as info:
            build()
        assert len(str(info.value)) < 200


def test_a_problem_file_with_a_huge_horizon_is_refused_in_one_short_line(tmp_path, capsys):
    doc = json.dumps(DOC).replace('"T": 1.0', '"T": 1' + "0" * 399)
    assert main(["run", str(write_doc(tmp_path, json.loads(doc)))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stieltjes: problem") and err.count("\n") == 1 and len(err) < 200
