import ast
import importlib
import pkgutil
from pathlib import Path

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


def linalg_calls(path: Path) -> list[str]:
    """The ``np.linalg`` (or ``numpy.linalg``) functions that a module
    calls or imports by name, other than the exception ``LinAlgError``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                    and isinstance(owner.value, ast.Name) and owner.value.id in ("np", "numpy")):
                names.append(node.func.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names.extend(alias.name for alias in node.names if alias.name == "linalg")
    return [name for name in names if name != "LinAlgError"]


# matcore owns every factorization: how an SVD, a least-squares solve or a
# rank is computed is decided in one module
def test_only_matcore_calls_numpy_linalg():
    sources = sorted(Path(sdofkit.__file__).parent.glob("*.py"))
    calls = {path.name: linalg_calls(path) for path in sources}
    assert calls.pop("matcore.py")  # the scan sees matcore's own calls
    assert {name: found for name, found in calls.items() if found} == {}
