import importlib
import pkgutil

import pytest

import gvfswarm

MODULES = ["gvfswarm"] + [f"gvfswarm.{m.name}" for m in pkgutil.iter_modules(gvfswarm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [attr for attr in exports if not hasattr(module, attr)] == []
