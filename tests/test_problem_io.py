"""Problem files: schema validation, the file -> solve -> CSV round trip, and
the compiled expressions that loading produces."""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest

from stieltjes import Derivator, ProblemFileError, WindowDomainError, problem_io
from stieltjes.expr import ExprFunction
from stieltjes.problem_io import load_problem_file, trace_csv_text, write_trace_csv
from stieltjes.solver import IVProblem, SolutionTrace, build_grid, solve_euler

DOC = {
    "version": 1,
    "derivators": {
        "g1": {"window": [0, 1], "anchor": 0.0, "breakpoints": [0, 0.5, 1],
               "slopes": [1, 0], "jumps": [[0.25, 0.5]]},
        "g2": {"window": [0, 1], "anchor": 0.0, "breakpoints": [0, 1],
               "slopes": [2], "jumps": [[0.25, 0.1], [0.75, 0.2]]},
    },
    "problem": {
        "t0": 0.0, "T": 1.0, "x0": [1.0, -0.5],
        "components": [
            {"derivator": "g1", "rhs": "x1"},
            {"derivator": "g2", "rhs": "0.5*sin(3*t)*x2 - 0.25*x1 + exp(-t)"},
        ],
        "ball_radius": 10.0,
        "modulus": {"expr": "t*(1 + t)"},
        "phi": "1 + 0.5*cos(t)",
    },
    "solver": {"method": "euler", "n_steps": 200},
    "output": {"trace_csv": "trace.csv"},
}


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def edited(**sections):
    """DOC with some keys of some sections replaced (None deletes a key)."""
    doc = copy.deepcopy(DOC)
    for section, changes in sections.items():
        if not isinstance(changes, dict):
            doc[section] = changes
            continue
        for key, value in changes.items():
            if value is None:
                doc[section].pop(key, None)
            else:
                doc[section][key] = value
    return doc


class TestRoundTrip:
    def test_load_solve_write_read(self, tmp_path):
        lp = load_problem_file(write_doc(tmp_path, DOC))
        p = lp.problem
        assert (p.t0, p.horizon, p.ball_radius) == (0.0, 1.0, 10.0)
        np.testing.assert_array_equal(p.x0, [1.0, -0.5])
        assert p.derivators == (lp.derivators_by_name["g1"], lp.derivators_by_name["g2"])
        assert (lp.method, lp.n_steps, lp.tol, lp.max_iter) == ("euler", 200, 1e-10, 100)
        assert (lp.trace_csv, lp.summary_json) == ("trace.csv", None)

        trace = solve_euler(p, build_grid(p, n_steps=lp.n_steps))
        csv = tmp_path / lp.trace_csv
        write_trace_csv(trace, p, csv)
        text = csv.read_text(encoding="utf-8")
        assert text == trace_csv_text(trace, p)
        rows = np.loadtxt(csv, delimiter=",", skiprows=1)
        # 17 significant digits read back exactly
        pre = rows[rows[:, 1] == 0]
        np.testing.assert_array_equal(pre[:, 0], trace.grid)
        np.testing.assert_array_equal(pre[:, 2:], trace.values)
        post = rows[rows[:, 1] == 1]
        np.testing.assert_array_equal(post[:, 0], [0.25, 0.75])
        at = np.searchsorted(trace.grid, [0.25, 0.75])
        np.testing.assert_array_equal(post[:, 2:], trace.right_values[at])

    def test_loaded_expressions_batch_like_their_scalar_call(self, tmp_path, rng):
        p = load_problem_file(write_doc(tmp_path, DOC)).problem
        ts = rng.uniform(0.0, 1.0, 50)
        xs = rng.uniform(-2.0, 2.0, (50, 2))
        for f in p.rhs:
            assert isinstance(f, ExprFunction)
            np.testing.assert_allclose(
                f.batch(ts, xs), [f(t, x) for t, x in zip(ts, xs)], rtol=1e-14, atol=0
            )
        for f in (p.phi, p.modulus):
            np.testing.assert_allclose(f.batch(ts), [f(t) for t in ts], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_omega_k_modulus_batches(self, tmp_path, rng, k):
        doc = edited(problem={"modulus": {"builtin": "omega_k", "k": k}})
        modulus = load_problem_file(write_doc(tmp_path, doc)).problem.modulus
        ss = np.concatenate(([0.0], rng.uniform(0.0, 0.2, 40)))
        np.testing.assert_array_equal(modulus.batch(ss), [modulus(s) for s in ss])
        assert modulus.batch(np.array([0.1, -1.0])) is None

    @pytest.mark.parametrize("k", [True, False, 0, 2.0, "2", 4, 10 ** 6])
    def test_an_omega_k_without_a_representable_k_is_refused(self, tmp_path, k):
        # a boolean is no integer here, and from k = 4 on e_k overflows
        doc = edited(problem={"modulus": {"builtin": "omega_k", "k": k}})
        with pytest.raises(ProblemFileError, match=r"problem\.modulus"):
            load_problem_file(write_doc(tmp_path, doc))


# Written by the per-value ``format(v, ".17g")`` writer; any change to the
# CSV format has to change this text.
GOLDEN_CSV = """\
t,post_jump,x_1,x_2
0,0,1,-0
0.10000000000000001,0,0.10000000000000001,-2.5
0.10000000000000001,1,0.30000000000000004,-2.5
0.33333333333333331,0,0.33333333333333331,1e-300
0.33333333333333331,1,-1e-300,-4.9406564584124654e-324
0.5,0,-0.33333333333333331,4.9406564584124654e-324
0.75,0,1e+22,-1.7976931348623157e+308
0.75,1,1e+22,0.10000000000000001
1,0,123456789,2.2250738585072014e-308
"""


class TestGoldenCsv:
    """The trace CSV, byte for byte, on a hand-made trace of a two-component
    problem: a jump of both components at 1/3, of g1 alone at 0.1 and of g2
    alone at 0.75, and values that test the 17-digit rendering."""

    @staticmethod
    def trace_and_problem():
        g1 = Derivator.identity((0.0, 1.0)).with_jumps([(0.1, 0.5), (1 / 3, 0.25)])
        g2 = Derivator.identity((0.0, 1.0)).with_jumps([(1 / 3, 1.0), (0.75, 2.0)])
        problem = IVProblem(t0=0.0, horizon=1.0, x0=[1.0, -0.0], derivators=(g1, g2),
                            rhs=(lambda t, x: x[0], lambda t, x: -x[1]))
        grid = np.array([0.0, 0.1, 1 / 3, 0.5, 0.75, 1.0])
        values = np.array([[1.0, -0.0], [0.1, -2.5], [1 / 3, 1e-300], [-1 / 3, 5e-324],
                           [1e22, -1.7976931348623157e308],
                           [123456789.0, 2.2250738585072014e-308]])
        rights = values.copy()
        rights[1] = [0.1 + 0.2, -2.5]
        rights[2] = [-1e-300, -5e-324]
        rights[4] = [1e22, 0.1]
        trace = SolutionTrace(grid=grid, values=values, right_values=rights, method="euler")
        return trace, problem

    def test_text_matches_the_golden_file(self):
        assert trace_csv_text(*self.trace_and_problem()) == GOLDEN_CSV

    @pytest.mark.parametrize("block", [1, 2, 4, 5])
    def test_text_is_the_same_for_any_row_block(self, monkeypatch, block):
        # rows are rendered in blocks; jumps sit on both sides of block edges
        monkeypatch.setattr(problem_io, "_CSV_BLOCK", block)
        assert trace_csv_text(*self.trace_and_problem()) == GOLDEN_CSV

    @pytest.mark.parametrize("block", [1, 2, 4, 5])
    def test_the_file_is_the_same_for_any_row_block(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(problem_io, "_CSV_BLOCK", block)
        write_trace_csv(*self.trace_and_problem(), tmp_path / "a.csv")
        assert (tmp_path / "a.csv").read_bytes() == GOLDEN_CSV.encode("utf-8")

    def test_a_refused_trace_leaves_no_file(self, tmp_path):
        trace, problem = self.trace_and_problem()
        trace.grid = trace.grid * 2.0  # past the window of g1 and g2
        with pytest.raises(WindowDomainError, match="outside the working window"):
            write_trace_csv(trace, problem, tmp_path / "a.csv")
        assert not (tmp_path / "a.csv").exists()

    def test_jump_rows_only_at_jumps_on_the_grid_before_its_end(self):
        g = Derivator.identity((0.0, 2.0)).with_jumps([(0.3, 1.0), (0.5, 1.0), (1.0, 1.0)])
        problem = IVProblem(0.0, 1.0, [0.0], (g,), (lambda t, x: 0.0,))
        grid, values = np.array([0.0, 0.5, 1.0]), np.zeros((3, 1))
        trace = SolutionTrace(grid=grid, values=values, right_values=values + 1.0, method="euler")
        assert trace_csv_text(trace, problem).splitlines()[1:] == [
            "0,0,0", "0.5,0,0", "0.5,1,1", "1,0,0"]

    def test_the_writer_holds_a_block_not_the_text(self, tmp_path):
        g = Derivator.identity((0.0, 1.0)).with_jumps([(0.5, 1.0)])
        problem = IVProblem(0.0, 1.0, [1.0, 2.0, 3.0], (g,) * 3, (lambda t, x: 0.0,) * 3)
        values = np.random.default_rng(3).uniform(-1.0, 1.0, (20_001, 3))
        trace = SolutionTrace(grid=np.linspace(0.0, 1.0, 20_001), values=values,
                              right_values=values + 1.0, method="euler")
        path = tmp_path / "a.csv"
        tracemalloc.start()
        try:
            write_trace_csv(trace, problem, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert path.read_text(encoding="utf-8") == trace_csv_text(trace, problem)
        assert size > 1_000_000 and peak < size / 2, (size, peak)

    def test_written_bytes_are_identical_across_calls(self, tmp_path):
        trace, problem = self.trace_and_problem()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(trace, problem, first)
        write_trace_csv(trace, problem, second)
        assert first.read_bytes() == second.read_bytes() == GOLDEN_CSV.encode("utf-8")


def _per_row_csv(trace, problem):
    """The trace CSV rendered one row at a time, as the writer did before it
    rendered a block with one ``%``: the reference for ``trace_csv_text``."""
    jump_points = {t for g in problem.derivators for t in g.jump_points.tolist()}
    row = "%.17g,%d" + ",%.17g" * problem.n + "\n"
    lines = ["t,post_jump," + ",".join(f"x_{i + 1}" for i in range(problem.n)) + "\n"]
    grid = trace.grid.tolist()
    for k, t in enumerate(grid):
        lines.append(row % (t, 0, *trace.values[k].tolist()))
        if t in jump_points and k < len(grid) - 1:
            lines.append(row % (t, 1, *trace.right_values[k].tolist()))
    return "".join(lines)


class TestBlockedCsvAgainstRows:
    """One ``%`` per block gives the text and the file of the per-row loop, for
    any block size, on random traces with jumps where blocks meet."""

    ROWS = 300
    # on both sides of the edges at 7, 14 and 256, on consecutive rows, on the
    # last row of a block of 7 and of 256 and on the first row; the closing
    # grid point gets no post-jump row, so the last block of 7 has none
    JUMP_ROWS = (0, 6, 7, 13, 14, 15, 20, 255, 256, 257, ROWS - 1)
    SPECIAL = (-0.0, 5e-324, 1e22, -1e22, 1.7976931348623157e308, -1.7976931348623157e308)

    def trace_and_problem(self, rng, n):
        grid = np.sort(rng.uniform(0.0, 1.0, self.ROWS))
        grid[0], grid[-1] = 0.0, 1.0
        owners = rng.integers(0, n, len(self.JUMP_ROWS))
        owners[: n] = np.arange(n)  # every component jumps somewhere
        gs = []
        for i in range(n):
            at = grid[[k for k, o in zip(self.JUMP_ROWS, owners) if o == i]]
            off = [(float(rng.uniform(grid[40], grid[41])), 1.0)]  # between grid points: no row
            gs.append(Derivator.identity((-1.0, 2.0)).with_jumps([(t, 0.5) for t in at] + off))
        problem = IVProblem(0.0, 1.0, np.zeros(n), gs, (lambda t, x: 0.0,) * n)
        shape = (self.ROWS, n)
        values, rights = (rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape) for _ in range(2))
        for states in (values, rights):
            hits = rng.random(states.shape) < 0.2
            states[hits] = rng.choice(self.SPECIAL, int(hits.sum()))
        return SolutionTrace(grid=grid, values=values, right_values=rights, method="euler"), problem

    @pytest.mark.parametrize("block", [1, 7, 256, 1000])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_text_and_file_equal_the_per_row_loop(self, tmp_path, monkeypatch, rng, n, block):
        monkeypatch.setattr(problem_io, "_CSV_BLOCK", block)
        for _ in range(3):
            trace, problem = self.trace_and_problem(rng, n)
            expected = _per_row_csv(trace, problem)
            flags = [line.split(",")[1] for line in expected.splitlines()[1:]]
            assert flags.count("1") == len(self.JUMP_ROWS) - 1 and len(flags) == self.ROWS + flags.count("1")
            assert trace_csv_text(trace, problem) == expected
            write_trace_csv(trace, problem, tmp_path / "a.csv")
            assert (tmp_path / "a.csv").read_bytes() == expected.encode("utf-8")


class TestValidation:
    @pytest.mark.parametrize("solver", [[1, 2], "euler", 3])
    def test_solver_must_be_an_object(self, tmp_path, solver):
        with pytest.raises(ProblemFileError, match="solver"):
            load_problem_file(write_doc(tmp_path, edited(solver=solver)))

    @pytest.mark.parametrize("key", ["n_steps", "max_iter", "tol"])
    def test_bools_are_not_numbers(self, tmp_path, key):
        with pytest.raises(ProblemFileError, match=f"solver.{key}"):
            load_problem_file(write_doc(tmp_path, edited(solver={key: True})))

    @pytest.mark.parametrize("key, value", [
        ("n_steps", 0), ("n_steps", 2.5), ("max_iter", 0), ("tol", 0), ("tol", -1e-3),
        ("tol", math.inf), ("method", "rk4"),
    ])
    def test_bad_solver_values(self, tmp_path, key, value):
        with pytest.raises(ProblemFileError, match=f"solver.{key}"):
            load_problem_file(write_doc(tmp_path, edited(solver={key: value})))

    def test_unknown_solver_key(self, tmp_path):
        doc = edited(solver={"n_stpes": 10})
        with pytest.raises(ProblemFileError, match="n_stpes"):
            load_problem_file(write_doc(tmp_path, doc))

    def test_unknown_output_key(self, tmp_path):
        # a misspelt trace_csv would otherwise run and write no CSV
        doc = edited(output={"picard.csv": "trace.csv"})
        with pytest.raises(ProblemFileError, match=r"output: unknown key\(s\) 'picard\.csv'"):
            load_problem_file(write_doc(tmp_path, doc))

    def test_output_paths_are_strings(self, tmp_path):
        with pytest.raises(ProblemFileError, match="output.trace_csv"):
            load_problem_file(write_doc(tmp_path, edited(output={"trace_csv": 3})))

    @pytest.mark.parametrize("section, key, value, field", [
        ("problem", "t0", math.nan, "problem: t0"),
        ("problem", "T", math.inf, "problem: horizon"),
        ("problem", "x0", [1.0, math.nan], "problem: x0"),
        ("problem", "ball_radius", math.nan, "problem: ball_radius"),
        ("problem", "ball_radius", 0, "problem: ball_radius"),
    ])
    def test_non_finite_problem_data(self, tmp_path, section, key, value, field):
        # json writes and reads NaN and Infinity
        doc = edited(**{section: {key: value}})
        with pytest.raises(ProblemFileError, match=field.replace(".", r"\.")):
            load_problem_file(write_doc(tmp_path, doc))

    def test_null_breakpoints_and_slopes_take_the_defaults(self, tmp_path):
        doc = copy.deepcopy(DOC)
        doc["derivators"]["g2"].update(breakpoints=None, slopes=None)
        g2 = load_problem_file(write_doc(tmp_path, doc)).derivators_by_name["g2"]
        assert g2.breakpoints.tolist() == [0.0, 1.0] and g2.slopes.tolist() == [1.0]

    def test_bad_rhs_expression_names_the_component(self, tmp_path):
        doc = copy.deepcopy(DOC)
        doc["problem"]["components"][1]["rhs"] = "x3"
        with pytest.raises(ProblemFileError, match=r"components\[1\]\.rhs"):
            load_problem_file(write_doc(tmp_path, doc))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ProblemFileError):
            load_problem_file(tmp_path / "missing.json")


def _changed(*path, to=None):
    """DOC with the key at ``path`` (keys and indices) set to ``to``, or deleted when ``to`` is None."""
    doc = copy.deepcopy(DOC)
    *parents, key = path
    section = doc
    for p in parents:
        section = section[p]
    if to is None:
        del section[key]
    else:
        section[key] = to
    return doc


class TestRefusals:
    """Each refusal of ``load_problem_file`` names the field and what is wrong with it."""

    @pytest.mark.parametrize("doc, message", [
        (_changed("problem", "t0"), "problem: missing required key 't0'"),
        (_changed("problem"), "document: missing required key 'problem'"),
        (_changed("problem", "x0", to="1.0"), "problem.x0: expected list, got str"),
        (_changed("problem", "components", to={}), "problem.components: expected list, got dict"),
        (_changed("problem", "T", to="1"), "problem: horizon must be positive and finite, got '1'"),
        (_changed("problem", "t0", to=True), "problem: t0 must be a finite real number, got True"),
        (_changed("derivators", "g2", to=[0, 1]), "derivators.g2: expected an object"),
        (_changed("derivators", "g2", "window", to=[1, 0]), "derivators.g2: window must be"),
        (_changed("derivators", "g2", "slopes", to=[1, 2]), "derivators.g2: expected 1 slopes"),
        (_changed("derivators", "g2", "window"), "derivators.g2: 'window'"),
        (_changed("derivators", to={}), "derivators: at least one derivator must be defined"),
        (_changed("problem", "modulus", to={"expr": "t +"}), "problem.modulus: bad modulus expression"),
        (_changed("problem", "modulus", to={"expr": "x1"}), "problem.modulus: bad modulus expression"),
        (_changed("problem", "modulus", to={"builtin": "omega_2"}), 'problem.modulus: expected {"builtin"'),
        (_changed("problem", "modulus", to="t"), 'problem.modulus: expected {"builtin"'),
        (_changed("problem", "phi", to="1 +"), "problem.phi: bad expression"),
        (_changed("problem", "phi", to=1.0), "problem.phi: expected an expression string"),
        (_changed("problem", "components", to=DOC["problem"]["components"][:1]),
         "problem.components: expected 2 components to match x0, got 1"),
        (_changed("problem", "components", 0, to="x1"), r"problem.components\[0\]: expected an object"),
        (_changed("problem", "components", 1, "derivator", to="g3"),
         r"problem.components\[1\].derivator: unknown derivator name 'g3'"),
        (_changed("problem", "T", to=2.0), r"problem: derivators\[0\] window \(0.0, 1.0\) does not contain"),
        (_changed("output", to=["trace.csv"]), "output: expected an object"),
        # a misspelt key used to load as absent: no ball, or the default slope 1
        (_changed("problem", "ball_raduis", to=0.1), r"problem: unknown key\(s\) 'ball_raduis'"),
        (_changed("derivators", "g2", "slope", to=[2]), r"derivators.g2: unknown key\(s\) 'slope'"),
        (_changed("solvr", to={"method": "picard"}), r"document: unknown key\(s\) 'solvr'"),
        (_changed("problem", "components", 1, "rhs2", to="x1"),
         r"problem.components\[1\]: unknown key\(s\) 'rhs2'"),
        (_changed("problem", "modulus", to={"builtin": "omega_k", "k": 1, "K": 2}),
         r"problem.modulus: unknown key\(s\) 'K'"),
        (_changed("problem", "modulus", to={"expr": "t", "k": 1}), r"problem.modulus: unknown key\(s\) 'k'"),
        (_changed("problem", "modulus", to={"expr": 5}), "problem.modulus.expr: expected an expression string"),
        # both equal 1, and loaded as version 1
        (_changed("version", to=True), "version: unsupported version True"),
        (_changed("version", to=1.0), "version: unsupported version 1.0"),
        # a bool or a string in a derivator spec used to load as a number, and
        # a window's third entry to be dropped
        (_changed("derivators", "g2", "anchor", to=True), "derivators.g2: anchor must be a finite real number"),
        (_changed("derivators", "g2", "jumps", to=[[0.5, True]]),
         r"derivators.g2: jumps\[0\]\[1\] must be a finite real number, got True"),
        (_changed("derivators", "g2", "window", to=["0", "1"]),
         r"derivators.g2: window\[0\] must be a finite real number, got '0'"),
        (_changed("derivators", "g2", "slopes", to=["2"]),
         r"derivators.g2: slopes\[0\] must be a finite real number"),
        (_changed("derivators", "g2", "breakpoints", to=[False, True]),
         r"derivators.g2: breakpoints\[0\] must be a finite real number, got False"),
        (_changed("derivators", "g2", "window", to=[0, 1, 5]), r"derivators.g2: window must be a finite pair"),
    ])
    def test_refused_documents(self, tmp_path, doc, message):
        with pytest.raises(ProblemFileError, match=message):
            load_problem_file(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("top", [[DOC], "problem", 1])
    def test_the_top_level_must_be_an_object(self, tmp_path, top):
        with pytest.raises(ProblemFileError, match="top level must be an object"):
            load_problem_file(write_doc(tmp_path, top))
