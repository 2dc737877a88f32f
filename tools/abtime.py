"""In-process A/B timer: this tree's package against a parent tree's, op by op.

Loads `src/widthcalc` of this tree and of PARENT as two packages in one
process, builds the catalog ops of one benchmark workload with
`perfbench/gen.py` (read only, from the entries listed in
`perfbench/reference/`, as `tools/identity.py` does), and runs each op's
`cli.main` on both packages in turn with stdout and stderr captured.  The
side that runs first alternates op by op, and the pattern flips round by
round, so drift in the host's speed falls on both sides alike.  Time is the
thread time of each call.

Each round prints one line: the change/parent ratio of the summed thread
times, both sums, and the number of ops whose bytes (exit code, stdout,
stderr) differ between the two trees.

    python3 tools/abtime.py PARENT                       # batch-d2, 3 rounds of 60 ops
    python3 tools/abtime.py PARENT --workload exponent-highd --ops 490 --rounds 5

PARENT is the root of another checkout, such as an extracted `git archive`
of the parent commit.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path
from time import thread_time

ROOT = Path(__file__).resolve().parents[1]


def load_package(tree: Path, name: str):
    """`tree/src/widthcalc` imported as the top-level package `name`."""
    src = Path(tree) / "src" / "widthcalc"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def catalog(workload: str) -> list[list[str]]:
    """The catalog argvs of `workload`, interleaved stratum by stratum in
    the order of its benchmark cycle."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    with open(ROOT / "perfbench" / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        strata = json.load(fh)["strata"]
    queues = {name: [index for index, _ in entries] for name, entries in strata.items()}
    argvs = []
    while any(queues.values()):
        for stratum in gen.CYCLES[workload]:
            if queues.get(stratum):
                argvs.append(gen.entry_argv(stratum, queues[stratum].pop(0)))
    return argvs


def timed(main, argv: list[str]) -> tuple[float, tuple]:
    """(thread time, (exit code, stdout, stderr)) of one `main(argv)` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = thread_time()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        t1 = thread_time()
    return t1 - t0, (code, out.getvalue(), err.getvalue())


def compare(change_main, parent_main, argvs, rounds: int, stream=sys.stdout) -> list[tuple]:
    """Run every argv on both sides for `rounds` rounds; print and return
    (ratio, change seconds, parent seconds, differing ops) per round."""
    results = []
    for k in range(rounds):
        sums = [0.0, 0.0]
        differ = 0
        for i, argv in enumerate(argvs):
            sides = [(0, change_main), (1, parent_main)]
            if (i + k) % 2:
                sides.reverse()
            outputs = [None, None]
            for side, main in sides:
                seconds, outputs[side] = timed(main, argv)
                sums[side] += seconds
            differ += outputs[0] != outputs[1]
        ratio = sums[0] / sums[1] if sums[1] else float("nan")
        print(
            f"round {k + 1}: change/parent {ratio:.4f}  change {sums[0]:.3f} s"
            f"  parent {sums[1]:.3f} s  differing ops {differ} of {len(argvs)}",
            file=stream, flush=True,
        )
        results.append((ratio, sums[0], sums[1], differ))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the tree to compare against")
    parser.add_argument("--workload", default="batch-d2", help="benchmark workload (batch-d2)")
    parser.add_argument("--ops", type=int, default=60, help="catalog ops per round (60)")
    parser.add_argument("--rounds", type=int, default=3, help="rounds (3)")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"
    change = load_package(ROOT, "widthcalc_change")
    parent = load_package(args.parent, "widthcalc_parent")
    argvs = catalog(args.workload)[: args.ops]
    for main_ in (change.cli.main, parent.cli.main):  # warm caches and lazy imports
        timed(main_, argvs[0])
    results = compare(change.cli.main, parent.cli.main, argvs, args.rounds)
    return int(any(r[3] for r in results))


if __name__ == "__main__":
    sys.exit(main())
