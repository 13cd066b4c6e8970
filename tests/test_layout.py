"""Module layout guard: no module imports another module's private names.

Private helpers stay private to the module that defines them; shared
machinery (the finite-difference stencils of ``grids``, for instance) is
reached through public builders.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "edgespec"


def private_imports(path):
    """(line, module, name) of every relative import of an underscore name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.module or "", alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_cross_module_private_imports():
    found = [f"{path.name}:{line}: from .{module} import {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, module, name in private_imports(path)]
    assert found == []
