"""Every public name of the package has a caller outside the tests.

Each name in `widthcalc.__all__` and in a module's `__all__`, and each public
method and property of a class the package defines, must be used by the
package itself, by `demos/` or by `perfbench/`.  Inside the package a use is
a reference in code: the name's own definition, the `__all__` lists, import
lines and docstrings do not count, and neither does a reference from inside
another public definition that has no such use itself.  A method counts as
used by a reference to its name anywhere else, since the check does not
know the types of the objects whose attributes are read.  In `demos/` and
`perfbench/` any mention counts, imports and strings included, since
`perfbench/spans.py` looks its targets up by name.  Dunder names such as
`__version__` are read by tools rather than called, and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "widthcalc"

# Public names kept without a caller, each with the reason.  A name leaves
# this table as soon as it gets one.
KEPT = {
    "_Parser.print_help": "argparse calls it for --help",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _defined_name(node: ast.stmt) -> str | None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif isinstance(node, ast.AnnAssign):
        target = node.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _references(node: ast.AST) -> set[str]:
    """The names `node` reads: bare names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _mentions(node: ast.AST) -> set[str]:
    """Every name `node` mentions: references, imports and string constants."""
    out = _references(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _package():
    """(public names, {definition: references inside it}, module-level references).

    A public method is named `Class.method`; the references inside a class
    other than those inside its public methods belong to the class.
    """
    public, inside, loose = set(), {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            if _is_all(node):
                public.update(elt.value for elt in node.value.elts)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif isinstance(node, ast.ClassDef):
                inside.setdefault(node.name, set())
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        key = f"{node.name}.{sub.name}"
                        public.add(key)
                        inside[key] = _references(sub)
                    else:
                        inside[node.name] |= _references(sub)
                for sub in (*node.bases, *node.keywords, *node.decorator_list):
                    inside[node.name] |= _references(sub)
            elif (name := _defined_name(node)) is not None:
                inside.setdefault(name, set()).update(_references(node))
            else:
                loose |= _references(node)
    return {name for name in public if not name.startswith("__")}, inside, loose


def _outside_mentions() -> set[str]:
    out = set()
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            out |= _mentions(_parse(path))
    return out


def _unused() -> set[str]:
    """The public names with no use, grown until no other name loses its use."""
    public, inside, loose = _package()
    used_outside = _outside_mentions() | loose
    unused: set[str] = set()
    while True:
        grown = set()
        for name in public - unused:
            bare = name.rpartition(".")[2]
            if bare not in used_outside and not any(
                bare in refs
                for other, refs in inside.items()
                if other != name and other not in unused
            ):
                grown.add(name)
        if not grown:
            return unused
        unused |= grown


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _unused()
    assert unused - KEPT.keys() == set()
    # A kept name that has found a caller no longer needs its entry.
    assert KEPT.keys() <= unused
