"""Module layout guards.

Private helpers stay private to the module that defines them; shared
machinery (the finite-difference stencils of ``grids``, for instance) is
reached through public builders; relative imports sit at module level.
The Witt floor lives in one predicate, ``kernels.require_witt_order``, the
only code that raises ``WittViolationError``.
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


def function_level_relative_imports(path):
    """(line, module) of every relative import inside a function body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.module or "")
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.ImportFrom) and node.level > 0]


def test_no_function_level_relative_imports():
    # a module's dependencies on the package sit at its top, where a reader
    # (and an import cycle) sees them
    found = [f"{path.name}:{line}: from .{module} import ..."
             for path in sorted(SRC.glob("*.py"))
             for line, module in function_level_relative_imports(path)]
    assert found == []


def _names_witt(exc):
    target = exc.func if isinstance(exc, ast.Call) else exc
    name = getattr(target, "id", None) or getattr(target, "attr", None)
    return name == "WittViolationError"


def witt_raises(path):
    """Innermost enclosing function of each ``raise WittViolationError``."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Raise) and _names_witt(node.exc):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return list(visit(ast.parse(path.read_text(), filename=str(path)),
                      "<module>"))


def test_one_witt_floor_raise():
    found = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in witt_raises(path)]
    assert found == [("kernels.py", "require_witt_order")]
