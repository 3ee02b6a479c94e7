"""The ``stieltjes run`` command."""

import json
import os
import subprocess
import sys

import stieltjes
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
    out = capsys.readouterr().out
    assert out.startswith("euler: 200 cells") and ", residual " in out


def test_run_picard_and_relative_output_path(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    doc = edited(solver={"method": "picard", "n_steps": 50, "tol": 1e-12},
                 output={"trace_csv": "out/picard.csv"})
    path = write_doc(tmp_path / "sub", doc)
    (tmp_path / "sub" / "out").mkdir()
    assert main(["run", str(path)]) == 0
    written = tmp_path / "sub" / "out" / "picard.csv"
    assert written.read_text(encoding="utf-8") == expected_csv(path)
    # a Picard trace's grid residual is its fixed-point defect: the line
    # reports what the number is, the last iteration's change
    out = capsys.readouterr().out
    assert out.startswith("picard: 52 cells") and ", last change " in out
    assert "residual" not in out


def test_summary_json_is_noted_as_not_written(tmp_path, capsys):
    path = write_doc(tmp_path, edited(output={"summary_json": "summary.json"}))
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().err == "note: output.summary_json is not written yet\n"
    assert not (tmp_path / "summary.json").exists()


def test_run_as_a_module(tmp_path):
    # ``python -m stieltjes.cli`` exits with main's status; a refused file
    # prints one line and no traceback
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(stieltjes.__file__))}

    def run(doc):
        return subprocess.run([sys.executable, "-m", "stieltjes.cli", "run", str(write_doc(tmp_path, doc))],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run(DOC)
    assert done.returncode == 0 and done.stdout.startswith("euler: 200 cells"), done.stderr
    done = run(edited(problem={"ball_raduis": 0.1}))
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "stieltjes: problem: unknown key(s) 'ball_raduis'\n"


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
