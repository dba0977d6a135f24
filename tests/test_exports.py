"""Every name in an export list exists: a function deleted but left in a
module's ``__all__`` must fail here, not at a user's ``import *``."""

import importlib
import pkgutil

import pytest

import weylkit

MODULES = [name for name in ["weylkit"] + [f"weylkit.{info.name}" for info in
                                            pkgutil.iter_modules(weylkit.__path__)]
           if hasattr(importlib.import_module(name), "__all__")]


def test_modules_declare_exports():
    assert {"weylkit.gbdt", "weylkit.rational", "weylkit.structured", "weylkit.fourier",
            "weylkit.interpolation", "weylkit.io"} <= set(MODULES)


@pytest.mark.parametrize("modname", MODULES)
def test_exported_names_exist(modname):
    module = importlib.import_module(modname)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{modname}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
