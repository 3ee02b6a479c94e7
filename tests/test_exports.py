"""Every name in a module's ``__all__`` exists in that module; no module imports scipy;
no solve imports numpy.ma; the attributes that the benchmark's tracer patches exist."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import stieltjes

from test_problem_io import DOC

MODULES = ["stieltjes"] + [
    f"stieltjes.{info.name}" for info in pkgutil.iter_modules(stieltjes.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_the_modules_are_found():
    assert {"stieltjes.derivative", "stieltjes.solver", "stieltjes.moduli"} <= set(MODULES)


def _run_fresh(code, *args):
    """Standard output of ``code`` in a fresh interpreter that imports this package."""
    root = os.path.dirname(os.path.dirname(stieltjes.__file__))  # where stieltjes imports from
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}).stdout


def test_no_module_imports_scipy():
    # a fresh interpreter: the tests themselves import scipy as a reference
    code = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _run_fresh(code).strip() == "[]"


# Under numpy < 2, ``import numpy`` itself imports numpy.ma.
@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy < 2 imports numpy.ma")
def test_no_solve_imports_numpy_ma(tmp_path):
    # numpy.ma (1.2 MB) is imported by np.unique and np.isin on their first
    # call: in a solve it would count in the memory peak and the set-up time
    code = (
        "import sys\n"
        "from stieltjes.problem_io import load_problem_file, trace_csv_text\n"
        "from stieltjes.solver import (apriori_bound, build_grid, caratheodory_bound_check,\n"
        "                              horizon_for_ball, residual, solve_euler, solve_picard,\n"
        "                              uniqueness_certificate)\n"
        "p = load_problem_file(sys.argv[1]).problem\n"
        "grid = build_grid(p, n_steps=50)\n"
        "euler = solve_euler(p, grid, compute_residual=False)\n"
        "residual(p, euler)\n"
        "solve_euler(p, grid)\n"
        "trace_csv_text(euler, p)\n"
        "picard = solve_picard(p, grid)\n"
        "horizon_for_ball(p)\n"
        "apriori_bound(p)\n"
        "uniqueness_certificate(p, n_samples=200)\n"
        "caratheodory_bound_check(p, 1.0, lambda t: 1e3, n_samples=200)\n"
        "trace_csv_text(picard, p)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DOC), encoding="utf-8")
    assert _run_fresh(code, str(path)).strip() == "False"


@pytest.mark.parametrize("module, name", [
    ("stieltjes.solver", "integrate"),
    ("stieltjes.derivative", "integrate"),
    ("stieltjes.solver", "OmegaTransform"),
    ("stieltjes.solver", "osgood_check"),
    ("stieltjes.derivator", "Derivator.eval"),
])
def test_the_names_the_benchmark_tracer_patches_exist(module, name):
    # bench/tracer.py wraps these attributes in place to count and time them
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
