import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def _identifiers(path: Path) -> set[str]:
    """Names a file reads: Name and Attribute nodes and the names of
    ``from ... import``; a def or class statement, a docstring or an
    ``__all__`` string is not a read."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_top_level_name_is_reached():
    # a name in symevol.__all__ is read by another source module or by an
    # acceptance criterion; otherwise it is wired in or deleted
    package = Path(symevol.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    acceptance = Path(__file__).with_name("test_acceptance.py")
    reached = set().union(*(_identifiers(p) for p in [*sources, acceptance]))
    assert [n for n in symevol.__all__ if n != "__version__" and n not in reached] == []


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random costs milliseconds and about 2 MB to load, so only an
    # ensemble loads it, when it draws; a fresh interpreter that imports the
    # command line has not
    probe = "import sys, symevol.cli; print('numpy.random' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert run.stdout == "False\n"
