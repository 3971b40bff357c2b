"""Module boundaries inside the package."""

import ast
from pathlib import Path

import multiarm

SRC = Path(multiarm.__file__).resolve().parent


def test_no_private_names_imported_across_modules():
    # An underscore name is its module's own; another module that needs it
    # needs a public name.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("multiarm"):
                continue
            found += [f"{path.name}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert found == []
