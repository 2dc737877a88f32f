"""Byte-identity corpus of the command line: one sha256 per call, and a total.

Runs `widthcalc.cli.main` in this process, with COLUMNS=80, over

  * every catalog entry of the benchmark's workloads, built by
    `perfbench/gen.py` from the entries listed in `perfbench/reference/`;
  * each `exponent`, `finite`, `regime` and `verify` entry of that catalog
    again in its other `--format`;
  * the `ARGV` and `PARSE_ARGV` of `tests/test_golden.py`;
  * the d = 16 anchors of `tests/_reference.py`, through `exponent` and
    `regime` in both formats and `exponent --grid-check` in both formats;
  * `verify --samples 500 --seed 42` in both formats.

Each call prints one line, `<index> <sha256>`, the digest taken over the
argv, the exit code, stdout and stderr; the last line is `total <sha256>
<calls>`, the sha256 of all the call digests in order.  Two trees that print
the same lines gave the same bytes on every call; `diff` names the calls
that differ.  The package, the benchmark files and the tests are read from
the tree that holds this script.

    python3 tools/identity.py              # the whole corpus
    python3 tools/identity.py --limit 50   # its first 50 calls
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
FORMATTED = ("exponent", "finite", "regime", "verify")


def _other_format(argv: list[str]) -> list[str]:
    """argv with `--format` switched between text (the default) and json."""
    if "--format" not in argv:
        return [*argv, "--format", "json"]
    at = argv.index("--format") + 1
    return [*argv[:at], "text" if argv[at] == "json" else "json", *argv[at + 1:]]


def corpus() -> list[list[str]]:
    """Every argv of the corpus, in the order the module docstring lists."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    catalog = []
    for workload in gen.WORKLOADS:
        with open(ROOT / "perfbench" / "reference" / f"{workload}.json", encoding="utf-8") as fh:
            strata = json.load(fh)["strata"]
        for stratum, entries in strata.items():
            catalog += [gen.entry_argv(stratum, index) for index, _ in entries]
    argvs = catalog + [_other_format(a) for a in catalog if a[0] in FORMATTED]
    golden = importlib.import_module("test_golden")
    argvs += [list(a) for _, a in golden.ARGV] + [list(a) for a in golden.PARSE_ARGV.values()]
    for r, p, q, *_ in importlib.import_module("_reference").D16_ANCHORS:
        anchor = ["--r", r, "--p", p, "--q", q]
        for argv in (
            ["exponent", *anchor], ["regime", *anchor], ["exponent", *anchor, "--grid-check"]
        ):
            argvs += [argv, _other_format(argv)]
    verify = ["verify", "--samples", "500", "--seed", "42"]
    return argvs + [verify, _other_format(verify)]


def digest(main, argv: list[str]) -> str:
    """sha256 of (argv, exit code, stdout, stderr) of one `main(argv)` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()], ensure_ascii=False)
    return hashlib.sha256(record.encode()).hexdigest()


def run(limit: int | None = None, stream=sys.stdout) -> str:
    """Print the digest of each call of the corpus (its first `limit` calls
    if given) and the total; return the total."""
    os.environ["COLUMNS"] = "80"
    from widthcalc.cli import main

    total = hashlib.sha256()
    argvs = corpus()[:limit]
    for index, argv in enumerate(argvs):
        line = digest(main, argv)
        total.update(line.encode())
        print(index, line, file=stream, flush=True)
    print("total", total.hexdigest(), len(argvs), file=stream)
    return total.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=int, help="run only the first LIMIT calls")
    run(parser.parse_args().limit)
