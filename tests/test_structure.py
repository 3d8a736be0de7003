"""Layering rules checked on the source text, and the import cost of the
command line."""

import ast
import json
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


def test_no_module_imports_scipy_optimize():
    assert _users("scipy.optimize") == []


def _names(tree: ast.AST, name: str) -> bool:
    """Does the tree name `name`: a variable, an attribute or an import?"""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (
                    node.name, node.name.rpartition(".")[2])):
            return True
    return False


def test_only_symfunc_names_asym():
    """End terms are made in symfunc alone: every other module builds its
    SymFuncs from symfunc's constructors and algebra."""
    assert sorted(path.name for path in PACKAGE.glob("*.py")
                  if _names(ast.parse(path.read_text()), "Asym")) == [
                      "symfunc.py"]


def _fresh(code: str, *args: str) -> str:
    """stdout of code run by a fresh interpreter that imports the package
    from the source tree."""
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True,
                          env={**os.environ,
                               "PYTHONPATH": str(PACKAGE.parent)}).stdout


def test_cli_import_loads_no_scipy():
    """Importing the command line imports no scipy module at all."""
    code = ("import sys, fourierineq.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    assert _fresh(code).strip() == "[]"


def test_package_and_cli_import_load_no_numpy():
    """The package resolves its public names on first use, and the command
    line imports only stdlib-only modules until its input is checked."""
    code = ("import sys, fourierineq, fourierineq.cli; "
            "fourierineq.ExponentConfig, fourierineq.parse_weight; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy'))")
    assert _fresh(code).strip() == "[]"


CRIT = ["criteria", "--v", "pow(0)", "--p", "2", "--q", "2", "--u"]
EST = ["estimate", "--u", "ind(1)", "--v", "pow(1/4)", "--p", "3", "--q", "2"]
# the malformed inputs of the README's exit-2 list that need no input file
MALFORMED = [
    ["criteria", "--u", "pow(0)", "--v", "pow(0)", "--p", "1/2", "--q", "2"],
    ["criteria", "--u", "pow(0)", "--v", "pow(0)", "--p", "1/0", "--q", "2"],
    ["criteria", "--u", "pow(0)", "--v", "pow(0)", "--p", "nan", "--q", "2"],
    CRIT + ["pow(1/0)"], CRIT + ["pow(nan)"], CRIT + ["pow(inf)"],
    CRIT + ["nope(1)"], CRIT + ["ind(0)"],
    ["criteria", "--u", "ind(1)@d=3", "--v", "pow(1/4)", "--p", "3",
     "--q", "2"],
    ["sweep", "--u", "pow(1/4)", "--v", "pow(0)", "--p-list", "2,1/0",
     "--q-list", "2"],
    EST + ["--N", "1000"], EST + ["--N", "2"], EST + ["--L", "0"],
    ["norms", "--kind", "theta"], ["norms", "--kind", "expL"],
    ["verify", "--suite", "nope"],
    EST + ["--seed", "-1"],
    ["hardy", "--kind", "head_integral", "--u", "pow(2)", "--p", "2",
     "--q", "2", "--oracle", "--seed", "-1"],
]

CHECKED_FIRST = """
import json, sys
from fourierineq.cli import main
for args in json.loads(sys.argv[1]):
    try:
        code = main(args)
    except SystemExit as exc:  # the parser refuses the argument
        code = exc.code
    print(code, "numpy" in sys.modules)
"""


def test_malformed_input_exits_2_before_numpy_loads():
    lines = _fresh(CHECKED_FIRST, json.dumps(MALFORMED)).splitlines()
    assert lines == ["2 False"] * len(MALFORMED)


CRITERIA_RUN = """
import sys
from fourierineq.cli import main
assert main(["criteria", "--u", "pow(1/4)", "--v", "pow(0)", "--p", "4/3",
             "--q", "2"]) == 0
print(sorted(m.split(".")[1] for m in sys.modules
             if m.startswith("fourierineq.")))
"""


def test_criteria_run_imports_only_what_it_runs():
    loaded = set(ast.literal_eval(_fresh(CRITERIA_RUN).splitlines()[-1]))
    assert "criteria" in loaded
    assert not loaded & {"extremal", "calderon", "norms"}


PUBLIC_NAMES = """
import importlib, fourierineq
bad = []
for name in fourierineq.__all__:
    home = importlib.import_module("fourierineq." + fourierineq._HOME[name])
    obj = getattr(fourierineq, name)
    # a function or class is defined in its home module, not re-exported
    if (obj is not vars(home)[name]
            or getattr(obj, "__module__", home.__name__) != home.__name__):
        bad.append(name)
print(bad)
print(set(fourierineq.__all__) <= set(dir(fourierineq)),
      fourierineq.symfunc.__name__, hasattr(fourierineq, "no_such_name"))
"""


def test_public_names_are_their_home_modules_objects():
    bad, rest = _fresh(PUBLIC_NAMES).splitlines()
    assert bad == "[]"
    assert rest == "True fourierineq.symfunc False"


NUMPY_ONLY_RUN = """
import math, sys, time
import numpy as np
from fourierineq import cli
from fourierineq.pieces import Piece, StepFunction, quad_cells
t = time.perf_counter()
value = quad_cells(lambda t: t * t, np.array([0.0]), np.array([1.0]))[0]
first_s = time.perf_counter() - t
assert abs(value - 1 / 3) < 1e-14
assert cli.main(["norms", "--kind", "theta", "--seq", sys.argv[1],
                 "--exponent", "3"]) == 0
assert cli.main(["norms", "--kind", "gamma", "--seq", sys.argv[1],
                 "--exponent", "1"]) == 0
# log-factor pieces: a head at 0 and cells, then cells and a tail
head = Piece(0.0, math.inf, 0.0, 1.0, 0.0, -0.5, 1)
tail = Piece(0.0, math.inf, 0.0, 1.0, 0.0, -2, -2)
assert StepFunction([head]).integrate(0.0, 5.0).is_finite
assert StepFunction([tail]).integrate(0.5, math.inf).is_finite
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(first_s)
"""


def test_no_module_imports_scipy_integrate():
    """The package needs numpy alone: no module imports any scipy module
    (scipy.integrate included), and none loads scipy's QUADPACK extension
    by path."""
    assert _users("scipy.integrate") == []
    assert _users("scipy") == []
    assert sorted(path.name for path in PACKAGE.glob("*.py")
                  if "_quadpack" in path.read_text()) == []


def test_first_integral_and_gamma_norm_load_no_scipy_package(tmp_path):
    """A run of the first integral, of the series norms (their tails by
    quadrature) and of a log-factor piece's integral loads no scipy module,
    and the first integral stays far below the 0.5 s that importing
    scipy.integrate costs."""
    seq = tmp_path / "seq.csv"
    seq.write_text("1,1.0\n2,0.5\n3,0.25\n")
    loaded, first_s = _fresh(NUMPY_ONLY_RUN, str(seq)).splitlines()[-2:]
    assert loaded == "[]"
    assert float(first_s) < 0.2


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


def test_scan_max_has_one_caller_symfunc_sup():
    """The package's one sup driver is ``SymFunc.sup``: no other code
    calls the maximizer ``pieces.scan_max``."""
    calls = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "scan_max" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                calls[path.name] = calls.get(path.name, 0) + 1
    assert calls == {"symfunc.py": 1}


def test_every_symfunc_of_norms_has_an_array_evaluator():
    """Every ``SymFunc(...)`` that norms.py builds passes ``at=``, so that
    no sup scan there samples point by point."""
    tree = ast.parse((PACKAGE / "norms.py").read_text())
    built = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "SymFunc"]
    assert built
    assert [node.lineno for node in built
            if not any(k.arg == "at" for k in node.keywords)] == []


def test_no_symfunc_is_integrated_by_quadpack():
    """A SymFunc has one evaluator, its array ``at``: it holds no point
    function ``fn`` for a scalar quadrature."""
    from fourierineq.symfunc import Cumulative, SymFunc

    assert "fn" not in SymFunc.__slots__
    assert "fn" not in Cumulative.__slots__
