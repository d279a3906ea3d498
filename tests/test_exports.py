"""Every name a module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import contmean

MODULES = ["contmean", *(f"contmean.{info.name}" for info in pkgutil.iter_modules(contmean.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
