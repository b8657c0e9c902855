"""The independent references in rotorlift.reference stay off the production path."""

import ast
from pathlib import Path

import rotorlift

PRODUCTION_MODULES = ("algebra", "matrices", "recovery", "io", "cli", "selftest")


def imported_names(name):
    """Every dotted part of every module or name an import statement in rotorlift/<name>.py names."""
    tree = ast.parse((Path(rotorlift.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_no_production_module_imports_the_reference():
    # the package re-exports two of the references, so its __init__ must be seen to import it
    assert "reference" in imported_names("__init__")
    for name in PRODUCTION_MODULES:
        assert "reference" not in imported_names(name), name
