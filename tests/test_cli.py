"""The ``stieltjes run`` command."""

import json

from stieltjes.cli import main
from stieltjes.problem_io import load_problem_file, trace_csv_text
from stieltjes.solver import build_grid, solve_euler, solve_picard

from test_problem_io import DOC, edited, write_doc


def expected_csv(path):
    lp = load_problem_file(path)
    grid = build_grid(lp.problem, n_steps=lp.n_steps)
    if lp.method == "euler":
        trace = solve_euler(lp.problem, grid)
    else:
        trace = solve_picard(lp.problem, grid, tol=lp.tol, max_iter=lp.max_iter)
    return trace_csv_text(trace, lp.problem)


def test_run_writes_the_trace_csv(tmp_path, capsys):
    path = write_doc(tmp_path, DOC)
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "trace.csv").read_text(encoding="utf-8") == expected_csv(path)
    assert capsys.readouterr().out.startswith("euler: 200 cells")


def test_run_picard_and_relative_output_path(tmp_path):
    (tmp_path / "sub").mkdir()
    doc = edited(solver={"method": "picard", "n_steps": 50, "tol": 1e-12},
                 output={"trace_csv": "out/picard.csv"})
    path = write_doc(tmp_path / "sub", doc)
    (tmp_path / "sub" / "out").mkdir()
    assert main(["run", str(path)]) == 0
    written = tmp_path / "sub" / "out" / "picard.csv"
    assert written.read_text(encoding="utf-8") == expected_csv(path)


def test_bad_input_exits_nonzero_with_the_message(tmp_path, capsys):
    path = write_doc(tmp_path, edited(solver={"n_stpes": 3}))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "solver" in err and "n_stpes" in err

    (tmp_path / "broken.json").write_text(json.dumps({"version": 2}), encoding="utf-8")
    assert main(["run", str(tmp_path / "broken.json")]) == 1
    assert "version" in capsys.readouterr().err


def test_deep_or_overflowing_rhs_exits_nonzero_with_a_named_error(tmp_path, capsys):
    x2_rhs = DOC["problem"]["components"][1]
    for rhs, words in [("x1" + " + 0" * 1500, "nested deeper"),
                       ("(" * 600 + "x1" + ")" * 600, "nested deeper"),
                       ("x1 - 1e999", "overflows")]:
        components = [{"derivator": "g1", "rhs": rhs}, x2_rhs]
        path = write_doc(tmp_path, edited(problem={"components": components}))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "components[0].rhs" in err and words in err
