"""The byte-identity corpus script, `tools/identity.py`, on a short prefix."""

import importlib.util
import io
from pathlib import Path

from _reference import catalog_argvs

from widthcalc.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


def test_identity_script_digests_a_prefix_of_its_corpus(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    argvs = identity.corpus()
    catalog = list(catalog_argvs())
    assert argvs[: len(catalog)] == catalog
    assert argvs[len(catalog)] == identity._other_format(catalog[0]) != catalog[0]
    stream = io.StringIO()
    total = identity.run(limit=12, stream=stream)
    lines = stream.getvalue().splitlines()
    assert lines[:-1] == [f"{i} {identity.digest(main, a)}" for i, a in enumerate(argvs[:12])]
    assert lines[-1] == f"total {total} 12"
