import importlib
import pkgutil

import pytest

import symevol

# every module but __main__, which runs the command line on import
MODULES = ["symevol"] + [f"symevol.{m.name}" for m in pkgutil.iter_modules(symevol.__path__)
                         if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_modules_are_found():
    assert {"symevol.transforms", "symevol.experiments", "symevol.model"} <= set(MODULES)
