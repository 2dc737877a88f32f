"""The scripts under `tools/`: the byte-identity corpus on a short prefix,
the code-line counter on a snippet, and the A/B timer on a few ops."""

import importlib.util
import io
from pathlib import Path

from _reference import catalog_argvs

from widthcalc.cli import main

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name: str):
    """`tools/<name>.py` as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_script_digests_a_prefix_of_its_corpus(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    identity = _tool("identity")
    argvs = identity.corpus()
    catalog = list(catalog_argvs())
    assert argvs[: len(catalog)] == catalog
    assert argvs[len(catalog)] == identity._other_format(catalog[0]) != catalog[0]
    stream = io.StringIO()
    total = identity.run(limit=12, stream=stream)
    lines = stream.getvalue().splitlines()
    assert lines[:-1] == [f"{i} {identity.digest(main, a)}" for i, a in enumerate(argvs[:12])]
    assert lines[-1] == f"total {total} 12"


SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a comment

# a comment line


def f():
    """A function docstring."""
    text = """a string
over three
lines"""
    return os.sep + text
'''


def test_code_line_counter_skips_comments_and_docstrings(tmp_path):
    codelines = _tool("codelines")
    # `import`, `def`, the three lines of the assigned string and `return`.
    assert codelines.code_lines(SNIPPET) == 6
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET, encoding="utf-8")
    stream = io.StringIO()
    assert codelines.main([str(tmp_path), str(path)], stream) == 12
    assert stream.getvalue().splitlines() == ["6 snippet.py", "6 snippet.py", "12 total"]


def test_ab_timer_finds_no_differing_op_between_a_tree_and_itself(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    abtime = _tool("abtime")
    argvs = abtime.catalog("batch-d2")
    assert [argv[0] for argv in argvs[:4]] == ["sweep", "verify", "sweep", "verify"]
    one = abtime.load_package(TOOLS.parent, "widthcalc_ab_one")
    two = abtime.load_package(TOOLS.parent, "widthcalc_ab_two")
    assert one.cli is not two.cli
    stream = io.StringIO()
    rounds = abtime.compare(one.cli.main, two.cli.main, argvs[:3], rounds=2, stream=stream)
    assert [differ for *_, differ in rounds] == [0, 0]
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2 and all(line.endswith("differing ops 0 of 3") for line in lines)
    # A side whose bytes differ is counted.
    silent = abtime.compare(one.cli.main, lambda argv: 0, argvs[:2], rounds=1, stream=stream)
    assert silent[0][3] == 2
