"""Every name in a module's ``__all__`` exists in that module; no module imports scipy;
the attributes that the benchmark's tracer patches exist."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import stieltjes

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


def test_no_module_imports_scipy():
    # a fresh interpreter: the tests themselves import scipy as a reference
    code = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    root = os.path.dirname(os.path.dirname(stieltjes.__file__))  # where stieltjes imports from
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


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
