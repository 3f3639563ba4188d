import importlib
import pkgutil

import pytest

import geoquant

MODULES = sorted(info.name for info in pkgutil.walk_packages(geoquant.__path__, "geoquant."))


def test_every_module_is_listed():
    assert {"geoquant.grid", "geoquant.stencil", "geoquant.prequant.observables"} <= set(MODULES)


@pytest.mark.parametrize("name", ["geoquant", *MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
