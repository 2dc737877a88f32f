"""mpmath is imported only where an irrational value needs it.

Rationals are rendered in integers, so the commands whose output is all
rational (`regime`, `exponent`, `sweep` over q, `verify`) finish without
importing mpmath; `finite` and `sweep --vary n` print width values, which
are rendered through mpmath.  Each command runs in a fresh interpreter.
`values` is the one module that names mpmath, so this boundary is kept in
one place.  Likewise `cli` is the one module that imports `json` or names
`json_rational`: the other modules hold reports as data, and `cli` renders
them.  No module reads the process environment, so every report is a
function of its command line.  And the closed forms and the oracle's
tables, lattice and certificate checker name nothing of the LP route, so
the routes that cross-check each other share no code; nor do the test
suite's `Fraction` closed forms read anything of `closedform` but the
report type they fill in.  Every name a module imports is used there or
exported in its `__all__`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = ["--r", "1,1", "--p", "3,3", "--q", "2"]

# argv, and whether the command loads mpmath
COMMANDS = {
    "regime": (["regime", "--r", "1,2", "--p", "3,3/2", "--q", "4"], False),
    "exponent-text": (["exponent", *SPEC], False),
    "exponent-json": (["exponent", *SPEC, "--format", "json"], False),
    "exponent-grid-check": (["exponent", *SPEC, "--grid-check"], False),
    "sweep-q": (["sweep", *SPEC, "--vary", "q", "--from", "3/2", "--to", "5/2", "--steps", "24"],
                False),
    "verify": (["verify", "--samples", "9", "--seed", "42"], False),
    "finite": (["finite", "--N", "4096", "--n", "512", "--q", "4", "--balls", "inf:1/64,3:1/4"],
               True),
    "sweep-n": (["sweep", "--r", "1,1,2", "--p", "3,3/2,5", "--q", "4", "--vary", "n",
                 "--m-vec", "3,2,1", "--from", "8", "--to", "32", "--steps", "7"], True),
}

_RUN = """\
import contextlib, io, sys
from widthcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "mpmath" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads", COMMANDS.values(), ids=COMMANDS)
def test_mpmath_is_imported_only_for_irrational_values(argv, loads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, *argv], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(loads)]


def _modules_naming(*targets: str) -> set[str]:
    """The package's modules that import, define or name any of `targets`."""
    naming = set()
    for path in sorted((ROOT / "src" / "widthcalc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                continue
            if any(name.split(".")[0] in targets for name in names):
                naming.add(path.name)
    return naming


def test_only_values_names_mpmath():
    assert _modules_naming("mpmath") == {"values.py"}


def test_only_cli_renders_json():
    # The routes hold reports as data; `cli` is the one module that renders them.
    assert _modules_naming("json", "json_rational") == {"cli.py"}


def test_no_module_reads_the_environment():
    assert _modules_naming("environ", "getenv") == set()


# The LP route: its solver module, its entry points and the shared piece
# tables it is built from.
LP_ROUTE = {
    "_simplex", "exponent", "build_objective", "minimize", "solve_lp", "piece_rows", "rate_rows",
}


def _names_used(tree: ast.AST) -> set[str]:
    """Each module, imported name, loaded variable and attribute `tree` names.

    A variable that is only assigned, such as the `exponent` field of
    `closedform.RegimeReport`, names nothing."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _functions_names(path: Path, roots: set[str]) -> set[str]:
    """The names used by the module functions `roots` and by every module
    function they reach by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert roots <= functions.keys()
    seen, todo, names = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            used = _names_used(functions[name])
            names |= used
            todo.extend(used & functions.keys())
    return names


def test_closed_forms_and_oracle_checks_share_no_code_with_the_lp():
    src = ROOT / "src" / "widthcalc"
    closed = ast.parse((src / "closedform.py").read_text(encoding="utf-8"))
    assert _names_used(closed) & LP_ROUTE == set()
    checks = {"_table", "grid_minimize", "check_certificate"}
    assert _functions_names(src / "oracle.py", checks) & LP_ROUTE == set()


def _exports(tree: ast.Module) -> set[str]:
    """The names of a module's literal `__all__`, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_used_or_exported():
    unused = {}
    for path in sorted((ROOT / "src" / "widthcalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        names = imported - loaded - _exports(tree)
        if names:
            unused[path.name] = names
    assert unused == {}


def test_the_reference_closed_forms_import_only_the_report_type():
    # `tests/_reference.py` rebuilds the classification from the Fraction
    # formulas, so of `closedform` it may read only the report it fills in.
    closed = ast.parse((ROOT / "src" / "widthcalc" / "closedform.py").read_text(encoding="utf-8"))
    defined = {"closedform"} | {
        node.name for node in closed.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reference = ast.parse((ROOT / "tests" / "_reference.py").read_text(encoding="utf-8"))
    paths = set()  # each imported name as a dotted path
    for node in ast.walk(reference):
        if isinstance(node, ast.Import):
            paths.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            paths.update(f"{node.module}.{a.name}" for a in node.names)
    reached = {
        path for path in paths
        if path.startswith("widthcalc.closedform")
        or path.startswith("widthcalc.") and path.rsplit(".", 1)[1] in defined
    }
    assert reached == {"widthcalc.closedform.RegimeReport"}
