import importlib
import pkgutil

import pytest

import entroll

MODULES = sorted(m.name for m in pkgutil.iter_modules(entroll.__path__, "entroll."))


@pytest.mark.parametrize("name", ["entroll", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
