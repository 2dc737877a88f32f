"""One workload run in a fresh interpreter; started by run.py, not by hand.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --setup-only

Right after loading the benchmark's own modules, which import nothing from
widthcalc, the process does the user's cold start: import widthcalc and
answer one trivial `regime` call.  It then prints "ready", which is when
the parent stops its set-up clock, and the calibration kernel's time (see
calibrate.py).  After that it builds the run's op sequence from the seed,
warms up, and issues ops back to back through `widthcalc.cli.main(argv)`
with stdout captured, until the time is up.  Each answer is checked against
the stored reference.  The last line of stdout is one JSON object with the
results, raw and scaled to the reference speed.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import answers
import gen
from answers import capture
from calibrate import kernel, kernel_median, scaled
from spans import Tracer

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str) -> dict[str, list]:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["strata"]


def visit_order(size: int, rng: random.Random):
    """Every catalog position once, in bit-reversed order from a seeded offset.

    The catalog is sorted by reference cost, and the first 2^k positions of
    a bit-reversed count are evenly spaced, so any prefix of this order is
    an even sample of the stratum's cost range.  That keeps the inputs of
    one seed from being much cheaper or dearer than those of another.
    """
    bits = max(1, (size - 1).bit_length())
    offset = rng.randrange(size)
    for r in range(1 << bits):
        pos = int(f"{r:0{bits}b}"[::-1], 2)
        if pos < size:
            yield (pos + offset) % size


def op_sequence(workload: str, seed: int, reference: dict[str, list]):
    """Endless (argv, expected digest, ends a cycle) stream: warm-up, then cycles.

    An entry comes back only after its whole stratum catalog has been used.
    """
    rng = random.Random(seed)
    orders = {}

    def take(stratum):
        while True:
            if stratum not in orders:
                orders[stratum] = visit_order(len(reference[stratum]), rng)
            pos = next(orders[stratum], None)
            if pos is not None:
                index, expected = reference[stratum][pos]
                return gen.entry_argv(stratum, index), expected
            del orders[stratum]

    for stratum in gen.WARMUP[workload]:
        yield (*take(stratum), True)
    cycle = gen.CYCLES[workload]
    while True:
        for k, stratum in enumerate(cycle):
            yield (*take(stratum), k == len(cycle) - 1)


def check(argv, rc, out, expected) -> bool:
    if rc in (1, 4):
        return False
    try:
        got = answers.answer(argv, rc, out)
    except (ValueError, KeyError, IndexError, TypeError):
        return False
    return answers.digest(argv, got) == expected


def run_ops(ops, seconds: float, max_ops: int, call, min_ops: int = 1):
    """Closed loop: the next op starts when the previous one has returned.

    Timing ends at the first cycle end after `seconds` once `min_ops` ops
    have run, so every run holds whole cycles of the workload's mix, or at
    twice `seconds` in any case.
    The calibration kernel runs before the first op and after each op.
    Returns op latencies, kernel times, the failed count and the ops run.
    """
    latencies, kernels, failed, done = [], [kernel()], 0, []
    start = time.perf_counter()
    while True:
        argv, expected, cycle_end = next(ops)
        t0 = time.perf_counter()
        try:
            rc, out = call(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc, out = None, repr(exc)
        latencies.append(time.perf_counter() - t0)
        kernels.append(kernel())
        done.append((argv, expected, cycle_end))
        if rc is None or not check(argv, rc, out, expected):
            failed += 1
            print(f"failed op: {' '.join(argv)} rc={rc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        finished = elapsed >= seconds and cycle_end and len(done) >= min_ops
        if finished or elapsed >= 2 * seconds or len(done) >= max_ops:
            return latencies, kernels, failed, done


def latency_stats(latencies: list[float]) -> dict[str, float]:
    ms = [1000 * x for x in latencies]
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1000),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0],
    }


def cold_start():
    """What every CLI user pays first: import widthcalc and answer one call."""
    import widthcalc  # noqa: F401
    from widthcalc.cli import main

    capture(main, ["regime", "--r", "1,2", "--p", "3,3/2", "--q", "2"])
    print("ready", flush=True)
    print(f"kernel {kernel_median()}", flush=True)
    return main


def environment() -> dict:
    import platform
    from importlib.metadata import version

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "sympy": version("sympy"),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "widthcalc_grid": os.environ.get("WIDTHCALC_GRID"),
    }


def main(cli_main) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=1 << 62, help="stop after this many ops")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt the reference of the first timed op (self-test)")
    args = ap.parse_args()
    if args.setup_only:
        return 0
    reference = load_reference(args.workload)
    ops = op_sequence(args.workload, args.seed, reference)
    call = lambda argv: capture(cli_main, argv)  # noqa: E731
    for _ in gen.WARMUP[args.workload]:
        call(next(ops)[0])
    if args.inject_wrong:
        argv, _, cycle_end = next(ops)
        ops = _prepend((argv, "0" * 16, cycle_end), ops)
    result = {"env": environment()}
    if args.trace:
        # A third of the time picks the ops and warms every cache on them;
        # the same ops then run traced and untraced again, and the ratio of
        # the time spent in ops on those two passes is the tracing overhead.
        _, _, failed, done = run_ops(ops, args.seconds / 3, args.max_ops, call)
        tracer = Tracer()
        tracer.install()
        traced = lambda argv: tracer.op(capture, cli_main, argv)  # noqa: E731
        lat_t, k_t, failed_t, _ = run_ops(iter(done), float("inf"), len(done), traced)
        tracer.uninstall()
        lat_u, k_u, failed_u, _ = run_ops(iter(done), float("inf"), len(done), call)
        result.update(
            ops=len(done), failed=failed + failed_t + failed_u,
            overhead_frac=sum(scaled(lat_t, k_t)) / sum(scaled(lat_u, k_u)) - 1,
            layers=tracer.metrics(),
        )
    else:
        # At least 100 ops, so that ten of them lie beyond the 90th percentile.
        latencies, kernels, failed, _ = run_ops(ops, args.seconds, args.max_ops, call, 100)
        result.update(
            ops=len(latencies), failed=failed,
            raw=latency_stats(latencies),
            scaled=latency_stats(scaled(latencies, kernels)),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    print(json.dumps(result), flush=True)
    return 0


def _prepend(item, rest):
    yield item
    yield from rest


if __name__ == "__main__":
    sys.exit(main(cold_start()))
