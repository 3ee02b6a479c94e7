"""Every name in a module's ``__all__`` exists in that module."""

import importlib
import pkgutil

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
