"""Module layout guards.

Private helpers stay private to the module that defines them; shared
machinery (the finite-difference stencils of ``grids``, for instance) is
reached through public builders; relative imports sit at module level.
The Witt floor lives in one predicate, ``kernels.require_witt_order``, the
only code that raises ``WittViolationError``, and both finite-difference
model operators in one builder, ``grids.fd_assemble_model``, the only
caller of the stencil table and the band placement; no other module reads
or writes the band storage.  The kernel layer reaches the Bessel
evaluator through ``kernels.kernel_factors`` alone, the one caller of
``log_bessel_ik`` outside ``bessel``.  sympy is imported
by ``clifford.symbolic_square_identity`` alone, inside it, and mpmath
nowhere, so importing the package loads no computer algebra; scipy only
inside functions of ``grids`` (the banded LU and the boundary
fingerprint's tridiagonal eigen-solve), so neither importing the package
nor measuring a norm loads it.  Every public
top-level name of the package, constants included, has a reader besides
its own unit tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "edgespec"


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


def _raises_witt(node):
    if not isinstance(node, ast.Raise):
        return False
    target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = getattr(target, "id", None) or getattr(target, "attr", None)
    return name == "WittViolationError"


def enclosing_functions(path, match):
    """Innermost enclosing function of each node for which match(node)."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if match(node):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return list(visit(ast.parse(path.read_text(), filename=str(path)),
                      "<module>"))


def test_one_witt_floor_raise():
    found = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in enclosing_functions(path, _raises_witt)]
    assert found == [("kernels.py", "require_witt_order")]


def _calls_fd_machinery(node):
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("_t_stencils", "_band"))


def test_one_fd_builder():
    # both model operators come from one builder: the stencil table and the
    # band placement have no other caller
    found = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in enclosing_functions(path, _calls_fd_machinery)}
    assert found == {("grids.py", "fd_assemble_model")}


def _touches_band_storage(node):
    return isinstance(node, ast.Attribute) and node.attr == "ab"


def test_band_storage_stays_in_grids():
    # the LAPACK band layout, the block order of a batched band and the
    # place of xi on its diagonal are known to grids alone: no other module
    # reads or writes BandMatrix.ab
    found = {path.name for path in sorted(SRC.glob("*.py"))
             if enclosing_functions(path, _touches_band_storage)}
    assert found == {"grids.py"}


def _calls_log_bessel_ik(node):
    return (isinstance(node, ast.Call)
            and (getattr(node.func, "id", None)
                 or getattr(node.func, "attr", None)) == "log_bessel_ik")


def test_one_bessel_entry_of_the_kernel_layer():
    # every kernel evaluation takes its Bessel factors from one factor pass:
    # outside bessel.py only kernel_factors calls log_bessel_ik
    found = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
             if path.name != "bessel.py"
             for scope in enclosing_functions(path, _calls_log_bessel_ik)}
    assert found == {("kernels.py", "kernel_factors")}


def _imported_packages(node):
    """Top-level package names an import statement loads."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        return set()
    return {m.split(".")[0] for m in modules}


def _imports_computer_algebra(node):
    return bool(_imported_packages(node) & {"sympy", "mpmath"})


def test_sympy_imported_only_by_the_symbolic_identity():
    # not at module level anywhere: the CLI and the benchmark's set-up run
    # without it
    found = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in enclosing_functions(path,
                                              _imports_computer_algebra)]
    assert found == [("clifford.py", "symbolic_square_identity")]


def test_scipy_imported_only_inside_grids_functions():
    # the package import and the benchmark's set-up run without it
    found = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in enclosing_functions(
                 path, lambda node: "scipy" in _imported_packages(node))}
    assert {name for name, _ in found} == {"grids.py"}
    assert "<module>" not in {scope for _, scope in found}


# (module, name, reason): public names whose only readers are unit tests
UNREAD_EXEMPT = (
    ("parametrix", "parametrix_apply",
     "the right inverse Q that the module exists to provide; its unit tests "
     "are the only direct check of the Qu that the mode solves return"),
)


def public_definitions(path):
    """Public top-level functions, classes and constants of a module (the
    Name targets of module-level assignments)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.extend(name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return [name for name in names if not name.startswith("_")]


def names_read(path):
    """Every name a module reads (loads), as a Name, an Attribute or an
    import; an assignment to a name does not read it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_public_name_read_only_by_its_unit_tests():
    # the library, the demos, the benchmark and the acceptance gate are the
    # readers; a unit test alone does not keep a public name alive
    readers = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "bench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    read = {name for path in readers for name in names_read(path)}
    exempt = {(module, name) for module, name, _ in UNREAD_EXEMPT}
    unread = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in public_definitions(path)
              if name not in read and (path.stem, name) not in exempt]
    assert unread == []
