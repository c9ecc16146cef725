import importlib
import pkgutil

import pytest

import sdofkit

MODULES = ["sdofkit"] + [f"sdofkit.{m.name}" for m in pkgutil.iter_modules(sdofkit.__path__)]


# a stale entry in an __all__ breaks `from module import *`
@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
