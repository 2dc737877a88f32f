"""widthcalc benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src.
`--workload all` runs every workload in turn, each as its own run.
Workloads: exponent-highd, batch-d2, finite-certs (see perfbench/gen.py and
perfbench/workloads.json).  One client issues CLI operations back to back
(a closed loop) in a fresh interpreter, and every answer is checked against
the stored reference.

--trace 0 reports the end-to-end metrics:
  setup_s      interpreter spawn until `import widthcalc` and one trivial
               `regime` call return; median of five fresh processes, the
               workload's own process among them
  ops_per_s    completed ops / time spent in them
  op_p50_ms    median op latency
  op_p90_ms    90th-percentile op latency
  peak_rss_mb  peak resident memory of the workload process
Times are scaled to a reference machine speed measured by a calibration
kernel run alongside (calibrate.py); the raw wall-clock figures are printed
above the result line.
Timing stops at the first end of a workload cycle after --seconds, so each
run measures whole cycles of the mix.

--trace 1 picks ops for a third of the time untraced, runs the same ops
again with spans around each layer, then once more untraced, and reports
the per-layer metrics (perfbench/spans.py) and the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  The process exits 2
without a result when ./src/widthcalc is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("WIDTHCALC_GRID", None)  # `verify` would take its lattice size from it
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], env: dict[str, str], deadline: float) -> tuple[float, float, str]:
    """Run one worker.

    Returns the seconds from spawn until it printed "ready", the kernel time
    it measured right after, and its last stdout line.
    """
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            second = proc.stdout.readline()
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit("worker did not finish in time")
    if first.strip() != "ready" or not second.startswith("kernel ") or proc.returncode != 0:
        raise SystemExit(f"worker failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return ready, float(second.split()[1]), lines[-1] if lines else ""


def main() -> int:
    ap = argparse.ArgumentParser(description="widthcalc benchmark")
    ap.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(subprocess.call([sys.executable, __file__, "--workload", w, *common])
                   for w in gen.WORKLOADS)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "widthcalc" / "__init__.py").is_file():
        print(f"error: no widthcalc sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    setups = []
    if not args.trace:
        # One unmeasured start compiles the bytecode and fills the file cache.
        spawn(["--setup-only"], env, deadline)
        setups = [spawn(["--setup-only"], env, deadline)[:2] for _ in range(SETUP_SAMPLES - 1)]
    ready, kernel_s, line = spawn(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env, deadline,
    )
    res = json.loads(line)
    if args.trace:
        attempted = 3 * res["ops"]  # the same ops in three passes
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        metrics["trace.overhead_frac"] = {"value": res["overhead_frac"], "unit": "share"}
        metrics["trace.ops"] = {"value": res["ops"], "unit": "ops"}
    else:
        attempted = res["ops"]
        setups.append((ready, kernel_s))
        raw_setup = statistics.median(s for s, _ in setups)
        setup = statistics.median(s * REFERENCE_S / k for s, k in setups)
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
        metrics = {"setup_s": {"value": setup, "unit": "s"}}
        metrics.update({name: {"value": v, "unit": units[name]} for name, v in res["scaled"].items()})
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MiB"}
    failed = res["failed"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"environment {json.dumps(res['env'], sort_keys=True)}")
    if not args.trace:
        raw = {"setup_s": raw_setup, **res["raw"]}
        print(f"raw wall clock {json.dumps(raw)}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} share ({failed} of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
