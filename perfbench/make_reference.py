"""Build the benchmark's reference catalogs and workload description.

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

For every stratum of the named workloads (default: all) this runs each
catalog entry through `widthcalc.cli.main` twice and stores the entry's
index with a digest of its argv and checked answer fields in
`perfbench/reference/<workload>.json`, ordered by the faster of the two
times scaled to the reference speed (see calibrate.py).  Runs visit that
order evenly (see `worker.visit_order`), so every run covers the whole cost
range of each stratum.  It then rewrites `perfbench/workloads.json`, which
records why each workload exists, the input properties measured over its
catalog, and what the benchmark deliberately leaves out.

Run it only on a commit whose answers are trusted: every later run of the
benchmark counts a differing answer as a failed op.  An entry that exits 1
or 4 is refused, because every generated input is meant to be valid.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from statistics import median

import answers
import gen
from calibrate import kernel, scaled

HERE = Path(__file__).resolve().parent

# Entries per stratum: enough that a 30 s run at the reference commit does
# not reuse an input (3 exponent cycles, about 55 sweeps and 55 verify
# calls, or about 2800 narrow and 950 wide finite calls).
CATALOG = {
    **{name: 32 for name in gen.STRATA if name.endswith("straddle")},
    **{name: 64 for name in gen.STRATA if name.endswith("plain")},
    "d12-lo-straddle": 16,
    "sweep": 256,
    "verify": 256,
    "finite-narrow": 4096,
    "finite-wide": 2048,
}

WHY = {
    "exponent-highd": "LP route at d = 4-12: the epigraph simplex and the uniqueness face probes "
    "are about 95% of op time, and their cost grows steeply with d and with q > 2",
    "batch-d2": "thousands of tiny d = 2 LPs where per-call overhead dominates, plus the lattice "
    "bracket, sampler, identity checks and the sweep thread pool",
    "finite-certs": "no LP and no lattice: PowerProduct ordering and construction (factoring of "
    "wide radii) and certificate building in finitedim",
}

EXCLUSIONS = [
    "Straddling exponent specs at d = 16 take 60 s (q <= 2) to 242 s (q > 2) per call at the "
    "reference commit, too long for a timed run; add them once the simplex rework makes d = 16 "
    "interactive.",
    "`exponent --grid-check` at d >= 4 exits 4 at the reference commit because of the 2^20 "
    "lattice guard; a fast refusal would read as speed.  Add it once the lattice is evaluated "
    "in bounded memory and the default grid fits the guard.",
    "`verify` takes its lattice size from WIDTHCALC_GRID when set; the benchmark unsets it.",
]


def _opt(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(v) for v in text.split(",")]


def build(workload: str, main) -> dict[str, list]:
    """Per stratum: [index, digest] pairs, cheapest entry first."""
    strata = {}
    for stratum in sorted(set(gen.CYCLES[workload]) | set(gen.WARMUP[workload])):
        entries = []
        for i in range(CATALOG[stratum]):
            argv = gen.entry_argv(stratum, i)
            times = []
            for _ in range(2):
                before = kernel()
                t0 = time.perf_counter()
                rc, out = answers.capture(main, argv)
                times.append(scaled([time.perf_counter() - t0], [before, kernel()])[0])
            if rc in (1, 4):
                raise SystemExit(f"generated input exits {rc}: {' '.join(argv)}")
            entries.append((min(times), i, answers.digest(argv, answers.answer(argv, rc, out))))
        strata[stratum] = [[i, digest] for _, i, digest in sorted(entries)]
        print(f"{workload}: {stratum} x {len(entries)}", file=sys.stderr, flush=True)
    return strata


def properties(workload: str) -> dict:
    """Input properties of one workload, per cycle and over its catalogs."""
    from widthcalc import ProblemSpec, build_objective

    cycle = gen.CYCLES[workload]
    props: dict = {"cycle": cycle}
    if workload == "exponent-highd":
        props["d_per_cycle"] = dict(Counter(s.split("-")[0] for s in cycle))
        props["q_side_per_cycle"] = dict(Counter(s.split("-")[1] for s in cycle))
        props["straddle_share"] = sum(s.endswith("straddle") for s in cycle) / len(cycle)
        pieces = {}
        for stratum in sorted(set(cycle)):
            counts = []
            for i in range(CATALOG[stratum]):
                argv = gen.entry_argv(stratum, i)
                spec = ProblemSpec(_fractions(_opt(argv, "--r")), _fractions(_opt(argv, "--p")),
                                   Fraction(_opt(argv, "--q")))
                counts.append(len(build_objective(spec).pieces))
            pieces[stratum] = {"min": min(counts), "median": median(counts), "max": max(counts)}
        props["pieces"] = pieces
    elif workload == "batch-d2":
        props["d"] = 2
        props["sweep_steps"] = gen.SWEEP_STEPS
        props["sweeps_crossing_q2"] = all(
            Fraction(_opt(a, "--from")) < 2 < Fraction(_opt(a, "--to"))
            for a in (gen.entry_argv("sweep", i) for i in range(CATALOG["sweep"]))
        )
        props["verify_samples"] = gen.VERIFY_SAMPLES
    else:
        props["wide_share"] = cycle.count("finite-wide") / len(cycle)
        for stratum in ("finite-narrow", "finite-wide"):
            argvs = [gen.entry_argv(stratum, i) for i in range(CATALOG[stratum])]
            radii = [Fraction(b.split(":")[1]) for a in argvs for b in _opt(a, "--balls").split(",")]
            qs = [Fraction(_opt(a, "--q")) for a in argvs]
            props[stratum] = {
                "balls": dict(Counter(len(_opt(a, "--balls").split(",")) for a in argvs)),
                "radius_digits_max": max(
                    max(len(str(r.numerator)), len(str(r.denominator))) for r in radii
                ),
                "q_le_2_share": sum(q <= 2 for q in qs) / len(qs),
                "N_range": [min(int(_opt(a, "--N")) for a in argvs),
                            max(int(_opt(a, "--N")) for a in argvs)],
            }
    props["catalog"] = {s: CATALOG[s] for s in sorted(set(cycle) | set(gen.WARMUP[workload]))}
    return props


def _commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=HERE, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    from widthcalc.cli import main as cli_main

    workloads = sys.argv[1:] or list(gen.WORKLOADS)
    commit = _commit()
    (HERE / "reference").mkdir(exist_ok=True)
    for workload in workloads:
        strata = build(workload, cli_main)
        lines = [f"{json.dumps(name)}: {json.dumps(entries, separators=(',', ':'))}"
                 for name, entries in strata.items()]
        with open(HERE / "reference" / f"{workload}.json", "w", encoding="utf-8") as fh:
            # One stratum per line keeps the file readable and its diffs small.
            fh.write(f'{{"commit": {json.dumps(commit)}, "strata": {{\n')
            fh.write(",\n".join(lines) + "\n}}\n")
    description = {
        "workloads": {w: {"why": WHY[w], **properties(w)} for w in gen.WORKLOADS},
        "exclusions": EXCLUSIONS,
    }
    with open(HERE / "workloads.json", "w", encoding="utf-8") as fh:
        json.dump(description, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
