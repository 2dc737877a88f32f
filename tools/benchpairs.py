"""Benchmark pairs of a change against its parent, written to BENCH_<commit>.json.

Runs `perfbench/run.py` end to end (`--trace 0`) in two checkouts, the
parent's and the change's, as the benchmark's own command does: from the
checkout's root, for every workload of `BENCHMARK.json`, for its
`run_seconds`, in ten pairs.  Pair k runs both sides on seed k (1 to 10),
and the side that runs first alternates pair by pair.  Each run's last
stdout line is its JSON result.

For each workload and each end-to-end metric of `BENCHMARK.json` the file
holds both sides' Q1, median and Q3 and every run's value, the pairs the
change won (a tie counts for neither side), the metric's bound, and whether
the change claims a gain on it; per workload it holds the ops attempted and
failed on each side.

    python3 tools/benchpairs.py PARENT CHANGE --parent-commit 78e130d \\
        --commit abc1234 --claim batch-d2:ops_per_s

PARENT and CHANGE are the roots of two checkouts, such as extracted
`git archive`s of the two commits.  The file goes to this tree's root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one end-to-end benchmark run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    """Q1, median and Q3 (the inclusive method), with the values themselves."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": list(values)}


def summarise(pairs: dict[str, list[tuple[dict, dict]]], contract: dict, claims) -> dict:
    """Per workload, the metrics of (parent, change) result pairs under the
    end-to-end contract of `BENCHMARK.json`; `claims` holds the claimed
    (workload, metric) pairs."""
    workloads = {}
    for workload, results in pairs.items():
        metrics = {}
        for spec in contract["end_to_end"]:
            name = spec["name"]
            sign = 1 if spec["better"] == "higher" else -1
            values = [[r["metrics"][name]["value"] for r in side] for side in zip(*results)]
            metrics[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec["bound"],
                "claimed": (workload, name) in claims,
                **{side: quartiles(v) for side, v in zip(SIDES, values)},
                "pairs": len(results),
                "pairs_won": sum(sign * (c - p) > 0 for p, c in zip(*values)),
            }
        totals = {
            key: {side: sum(r[i][key] for r in results) for i, side in enumerate(SIDES)}
            for key in ("attempted", "failed")
        }
        workloads[workload] = {**totals, "metrics": metrics}
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent's checkout")
    parser.add_argument("change", type=Path, help="root of the change's checkout")
    parser.add_argument("--parent-commit", required=True, help="short sha of the parent")
    parser.add_argument("--commit", required=True, help="short sha of the change")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="a claimed gain; repeat for more")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in contract["workloads"]]
    seconds = contract["run_seconds"]
    claims = {tuple(claim.split(":", 1)) for claim in args.claim}
    seeds = list(range(1, PAIRS + 1))
    trees = dict(zip(SIDES, (args.parent, args.change)))
    pairs = {}
    for workload in workloads:
        pairs[workload] = []
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            result = {side: run_once(trees[side], workload, seed, seconds) for side in order}
            pairs[workload].append((result["parent"], result["change"]))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} ops_per_s {result[side]['metrics']['ops_per_s']['value']:.1f}"
                for side in SIDES), flush=True)
    report = {
        "commit": args.commit,
        "parent": args.parent_commit,
        "seeds": seeds,
        "runs_per_side": PAIRS,
        "seconds": seconds,
        "workloads": summarise(pairs, contract, claims),
    }
    out = ROOT / f"BENCH_{args.commit}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for workload, data in report["workloads"].items():
        for name, m in data["metrics"].items():
            print(f"{workload:15s} {name:12s} parent {m['parent']['median']:.4g}"
                  f" [{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]"
                  f"  change {m['change']['median']:.4g}"
                  f" [{m['change']['q1']:.4g}, {m['change']['q3']:.4g}]"
                  f"  won {m['pairs_won']} of {m['pairs']}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
