"""Layering rules checked on the source text, and the import cost of the
command line."""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fourierineq"


def _imports(tree: ast.AST, module: str) -> bool:
    """Does the tree import `module` (a dotted scipy submodule) or
    anything from it?"""
    parent, _, leaf = module.rpartition(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == module or a.name.startswith(module + ".")
                   for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == module or node.module.startswith(module + "."):
                return True
            if node.module == parent and any(a.name == leaf
                                             for a in node.names):
                return True
    return False


def _users(module: str) -> list[str]:
    return sorted(path.name for path in PACKAGE.glob("*.py")
                  if _imports(ast.parse(path.read_text()), module))


def test_only_pieces_imports_scipy_integrate():
    assert _users("scipy.integrate") == ["pieces.py"]


def test_no_module_imports_scipy_optimize():
    assert _users("scipy.optimize") == []


def test_cli_import_loads_no_scipy():
    """scipy loads on the first quadrature or zeta call, not on import."""
    code = ("import sys, fourierineq.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": str(PACKAGE.parent)}).stdout
    assert out.strip() == "[]"


def _private_imports(path: pathlib.Path) -> list[str]:
    """`module.name` for each underscore name the file imports from
    another package module (relative imports, at any depth)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            out += [f"{node.module}.{a.name}" for a in node.names
                    if a.name.startswith("_")]
    return out


def test_no_private_names_imported_across_modules():
    found = {path.name: _private_imports(path)
             for path in PACKAGE.glob("*.py")}
    assert {k: v for k, v in found.items() if v} == {}
