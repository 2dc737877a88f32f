"""The scripts under `tools/`: the byte-identity corpus on a short prefix,
the code-line counter on a snippet, the A/B timer on a few ops, and the
benchmark-pair summary with the `BENCH_*.json` files it writes."""

import importlib.util
import io
import json
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


def _result(ops_per_s, p50, failed=0):
    names = {"setup_s": 0.1, "ops_per_s": ops_per_s, "op_p50_ms": p50, "op_p90_ms": 2 * p50,
             "peak_rss_mb": 30.0}
    return {"attempted": 100, "failed": failed,
            "metrics": {name: {"value": v} for name, v in names.items()}}


def test_bench_pairs_are_summarised_per_side_with_pairs_won():
    benchpairs = _tool("benchpairs")
    contract = json.loads((TOOLS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = {"batch-d2": [(_result(200, 5.0), _result(250, 4.0)),
                          (_result(210, 4.0), _result(205, 4.0, failed=1)),
                          (_result(190, 5.5), _result(260, 3.5))]}
    data = benchpairs.summarise(pairs, contract, {("batch-d2", "ops_per_s")})["batch-d2"]
    ops, p50 = data["metrics"]["ops_per_s"], data["metrics"]["op_p50_ms"]
    assert (ops["claimed"], p50["claimed"]) == (True, False)
    assert ops["parent"] == {"q1": 195, "median": 200, "q3": 205, "runs": [200, 210, 190]}
    assert ops["change"]["median"] == 250 and ops["bound"] == 0.25
    # Higher is better for ops_per_s, lower for op_p50_ms; a tie counts for neither.
    assert (ops["pairs_won"], p50["pairs_won"], ops["pairs"]) == (2, 2, 3)
    assert data["failed"] == {"parent": 0, "change": 1}
    assert data["attempted"] == {"parent": 300, "change": 300}


def test_every_bench_file_parses_with_ordered_quartiles():
    contract = json.loads((TOOLS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for path in sorted(TOOLS.parent.glob("BENCH_*.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        assert path.name == f"BENCH_{report['commit']}.json"
        assert report["workloads"], path
        # The benchmark's own run length, in at least ten pairs.
        assert report["runs_per_side"] >= 10 and report["seconds"] == contract["run_seconds"]
        for workload, data in report["workloads"].items():
            for name, metric in data["metrics"].items():
                for side in ("parent", "change"):
                    q = metric[side]
                    assert q["q1"] <= q["median"] <= q["q3"], (path.name, workload, name, side)
                    assert len(q["runs"]) == report["runs_per_side"]
                assert 0 <= metric["pairs_won"] <= metric["pairs"]
