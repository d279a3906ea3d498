"""Every name a module lists in ``__all__`` exists in it, and the test
oracles import no private name of the package."""

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
