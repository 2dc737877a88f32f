"""Self-test of the benchmark itself, at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each workload it checks that

* an injected wrong reference answer is counted as exactly one failed op,
  while the same ops with the true references all pass;
* in a traced run, every layer the workload is predicted to use reports
  work, and every layer it is predicted not to touch reports exactly zero.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from run import spawn, worker_env

TINY_OPS = {"exponent-highd": 3, "batch-d2": 2, "finite-certs": 8}

# Per workload: metrics that must be > 0, and metrics that must be exactly 0.
PREDICTIONS = {
    "exponent-highd": (
        ["cli.self_s", "closedform.classify_regime.calls", "exponent.build_objective.self_s",
         "exponent.minimize.self_s", "exponent.pieces_per_objective", "simplex.epigraph.calls",
         "simplex.epigraph.s", "simplex.probe.calls", "simplex.probe.s", "values.decimal.s"],
        ["oracle.grid_minimize.calls", "oracle.grid_minimize.s", "oracle.lattice_points",
         "oracle.sample_branch.s", "oracle.cross_validate.self_s", "finitedim.classify_branch.self_s",
         "finitedim.certificate_verify.self_s", "values.compare.calls", "values.construct.calls"],
    ),
    "batch-d2": (
        ["cli.self_s", "closedform.classify_regime.calls", "exponent.minimize.self_s",
         "simplex.epigraph.calls", "simplex.probe.calls", "oracle.grid_minimize.calls",
         "oracle.grid_minimize.s", "oracle.lattice_points", "oracle.sample_branch.s",
         "oracle.check_scaling_identities.s", "oracle.identity_checks",
         "oracle.cross_validate.self_s", "values.decimal.s"],
        ["finitedim.intersection_order.self_s", "finitedim.classify_branch.self_s",
         "finitedim.certificate_verify.self_s", "values.compare.calls", "values.construct.calls"],
    ),
    "finite-certs": (
        ["cli.self_s", "finitedim.intersection_order.self_s", "finitedim.classify_branch.self_s",
         "finitedim.certificate_verify.self_s", "finitedim.checks_per_certificate",
         "values.compare.calls", "values.compare.s", "values.construct.calls",
         "values.construct.s", "values.decimal.s"],
        ["closedform.classify_regime.calls", "exponent.minimize.self_s",
         "simplex.epigraph.calls", "simplex.epigraph.s", "simplex.probe.calls",
         "simplex.probe.s", "oracle.grid_minimize.calls", "oracle.grid_minimize.s",
         "oracle.lattice_points", "oracle.cross_validate.self_s"],
    ),
}


def _worker(workload: str, *extra: str) -> dict:
    args = ["--workload", workload, "--seed", "1", "--seconds", "60",
            "--max-ops", str(TINY_OPS[workload]), *extra]
    *_, line = spawn(args, worker_env(Path.cwd()), time.monotonic() + 170)
    return json.loads(line)


def main() -> int:
    problems = []
    for workload, (busy, idle) in PREDICTIONS.items():
        clean = _worker(workload)
        injected = _worker(workload, "--inject-wrong")
        if clean["failed"] != 0:
            problems.append(f"{workload}: {clean['failed']} failed ops with true references")
        if injected["failed"] != 1:
            problems.append(f"{workload}: injected wrong answer gave {injected['failed']} failures")
        layers = _worker(workload, "--trace", "1")["layers"]
        for name in busy:
            if not layers[name][0] > 0:
                problems.append(f"{workload}: {name} = {layers[name][0]}, predicted > 0")
        for name in idle:
            if layers[name][0] != 0:
                problems.append(f"{workload}: {name} = {layers[name][0]}, predicted 0")
        print(f"{workload}: checked {len(busy)} busy and {len(idle)} idle layers", flush=True)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
