"""Every name a package module imports is used in that module.

A deletion that leaves an import behind shows here.  Each module under
``src/hermite_counts`` is read with ``ast``: a name an import binds, at any
depth, counts as used where the module loads it (an attribute chain through
its root).  Annotations count as code, as ``ast`` parses them even under
``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hermite_counts"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in loaded}
    assert unused == {}, f"{path.name} imports names it does not use: {unused}"
