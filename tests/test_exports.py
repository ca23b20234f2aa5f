import ast
import importlib
import inspect
import pkgutil

import pytest

import qqwalk

MODULES = sorted(m.name for m in pkgutil.iter_modules(qqwalk.__path__, "qqwalk."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a deleted public name must not linger in __all__
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    # a public function or class of a module with __all__ is listed there
    mod = importlib.import_module(name)
    public = getattr(mod, "__all__", None)
    if public is None:
        return
    unlisted = [n for n, obj in vars(mod).items()
                if not n.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == name and n not in public]
    assert not unlisted


def test_package_imports_only_public_names():
    # qqwalk re-exports names only from the __all__ of their module
    for node in ast.parse(inspect.getsource(qqwalk)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = getattr(importlib.import_module(f"qqwalk.{node.module}"),
                             "__all__", None)
            if public is not None:
                hidden = [a.name for a in node.names if a.name not in public]
                assert not hidden, (node.module, hidden)
