import importlib
import pkgutil

import pytest

import mbcal

MODULES = [m.name for m in pkgutil.iter_modules(mbcal.__path__, "mbcal.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # `from mbcal.<module> import *` fails on a name left in __all__ after
    # its definition was deleted
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
