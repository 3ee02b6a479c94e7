"""Command-line front end: ``stieltjes run problem.json``.

``run`` loads a problem file, builds the grid (``build_grid`` with the
file's ``n_steps``), solves with the file's method (Euler or Picard) and
writes the trace CSV when ``output.trace_csv`` is set.  A relative output
path is taken relative to the problem file's directory, so a run does not
depend on the working directory.  It prints one line: the method, the cell
count, the final state and, after Euler, the grid residual or, after Picard,
the last iteration's change.  Bad input exits with status 1 and the
library's error message on standard error.
"""

import argparse
import os
import sys

from .errors import StieltjesError
from .problem_io import load_problem_file, write_trace_csv
from .solver import build_grid, solve_euler, solve_picard

__all__ = ["main"]


def _run(path):
    lp = load_problem_file(path)
    problem = lp.problem
    grid = build_grid(problem, n_steps=lp.n_steps)
    if lp.method == "euler":
        trace = solve_euler(problem, grid)
    else:
        trace = solve_picard(problem, grid, tol=lp.tol, max_iter=lp.max_iter)
    if lp.trace_csv is not None:
        csv_path = os.path.join(os.path.dirname(os.path.abspath(path)), lp.trace_csv)
        write_trace_csv(trace, problem, csv_path)
    print(
        f"{lp.method}: {grid.size - 1} cells, final state "
        f"{', '.join(format(float(v), '.17g') for v in trace.final)}, "
        f"{'residual' if lp.method == 'euler' else 'last change'} {float(trace.residual.max()):.3g}"
    )
    if lp.summary_json is not None:
        print("note: output.summary_json is not written yet", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="stieltjes", description="Solve Stieltjes problem files.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="solve a problem file and write its outputs")
    run.add_argument("problem", help="path of a JSON problem file")
    args = parser.parse_args(argv)
    try:
        _run(args.problem)
    except (StieltjesError, OSError) as exc:
        print(f"stieltjes: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
