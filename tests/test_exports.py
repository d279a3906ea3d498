"""Every name a module lists in ``__all__`` exists in it, the test oracles
import no private name of the package, and no module of the package imports
a private name of ``contmean.estimators``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import contmean

MODULES = ["contmean", *(f"contmean.{info.name}" for info in pkgutil.iter_modules(contmean.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_oracles_import_no_private_name():
    # a reference that shares the package's internals cannot check them
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "contmean"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_modules_import_no_private_name_of_estimators():
    # what another layer needs of the estimators is public API, so the
    # trace format and the records' layout have one owner
    private = [
        f"{path.name}: {alias.name}"
        for path in sorted(Path(contmean.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "contmean.estimators"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
