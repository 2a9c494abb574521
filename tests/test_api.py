import importlib
import pkgutil

import pytest

import becgates

MODULES = sorted(m.name for m in pkgutil.iter_modules(becgates.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"becgates.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
