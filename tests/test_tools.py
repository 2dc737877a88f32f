"""The scripts under `tools/`: the byte-identity corpus on a short prefix,
and the code-line counter on a snippet."""

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
