"""Layering rules checked on the source text."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fourierineq"


def _imports_scipy_integrate(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "scipy.integrate"
                   or a.name.startswith("scipy.integrate.")
                   for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "scipy.integrate" \
                    or node.module.startswith("scipy.integrate."):
                return True
            if node.module == "scipy" and any(a.name == "integrate"
                                              for a in node.names):
                return True
    return False


def test_only_pieces_imports_scipy_integrate():
    users = sorted(path.name for path in PACKAGE.glob("*.py")
                   if _imports_scipy_integrate(ast.parse(path.read_text())))
    assert users == ["pieces.py"]
