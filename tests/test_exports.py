import importlib
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
