"""No module of the package imports a layer above it."""

import ast
from pathlib import Path

import pytest

import combi

LAYERS = ("poly", "series", "sturm", "objects", "bijections", "families",
          "grammar", "verify", "cli")
PACKAGE = Path(combi.__file__).parent


def _relative_imports(path):
    """The package modules that `path` imports by relative import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:  # from . import a, b
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers(module):
    rank = LAYERS.index(module)
    for name in _relative_imports(PACKAGE / f"{module}.py"):
        assert name in LAYERS[:rank], f"{module} imports {name}"
