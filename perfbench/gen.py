"""Seeded input generators for the widthcalc benchmark.

Every generator takes a `random.Random` and returns one CLI argv list.  They
use nothing from widthcalc (in particular not `widthcalc.oracle.sample_*`
or `Lcg`), so a rewrite of the package's own samplers cannot change the
workload.

A workload is a cycle of strata.  `CYCLES[workload]` lists the stratum of
each slot in the order a run issues them, and `STRATA[stratum]` builds one
input of that stratum.  A run times whole cycles, so its mix is the same
whatever the seed; the seed only chooses which inputs fill the slots.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

MAX_DEN = 8


def rational_between(rng: random.Random, lo, hi, max_den: int = MAX_DEN) -> F:
    """A rational strictly inside (lo, hi) with denominator at most max_den."""
    lo, hi = F(lo), F(hi)
    while True:
        den = rng.randint(1, max_den)
        nmin = math.floor(lo * den) + 1
        nmax = math.ceil(hi * den) - 1
        if nmin <= nmax:
            return F(rng.randint(nmin, nmax), den)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# exponent-highd: `widthcalc exponent` on d = 4, 6, 8 (and a few d = 12)


def exponent_argv(rng: random.Random, d: int, high_q: bool, straddle: bool) -> list[str]:
    """One `exponent` call.

    q ≤ 2 draws q in (5/4, 2]; q > 2 draws q in (9/4, 6).  A straddling
    spec puts one coordinate of p̄ on the far side of q (q ≤ 2), or of both
    q and 2 (q > 2), so that cross-λ and, for q > 2, cross-μ pieces occur;
    a plain spec keeps every p_j in one band.
    """
    if high_q:
        q = rational_between(rng, F(9, 4), 6)
        bands = [(q, q + 6), (2, q), (1, 2)]
    else:
        q = rational_between(rng, F(5, 4), 2) if rng.random() < 0.75 else F(2)
        bands = [(q, q + 6), (1, q)]
    if straddle:
        # One coordinate above q and the rest below 2 (or below q), or the
        # mirror image; either way p̄ crosses every threshold once.
        far, near = (bands[0], bands[-1]) if rng.random() < 0.5 else (bands[-1], bands[0])
        p = [rational_between(rng, *far)] + [rational_between(rng, *near) for _ in range(d - 1)]
        rng.shuffle(p)
    else:
        band = rng.choice(bands)
        p = [rational_between(rng, *band) for _ in range(d)]
    r = [rational_between(rng, F(1, 2), 4) for _ in range(d)]
    return ["exponent", "--r", _csv(r), "--p", _csv(p), "--q", str(q), "--format", "json"]


# ---------------------------------------------------------------------------
# batch-d2: 24-step q sweeps across q = 2, and 9-sample verify runs

SWEEP_STEPS = 24
VERIFY_SAMPLES = 9


def sweep_argv(rng: random.Random) -> list[str]:
    r = [rational_between(rng, F(1, 2), 4) for _ in range(2)]
    p = [rational_between(rng, 1, 8) for _ in range(2)]
    lo = rational_between(rng, 1, 2)
    hi = rational_between(rng, 2, 8, max_den=4)
    return [
        "sweep", "--r", _csv(r), "--p", _csv(p), "--q", str(lo),
        "--vary", "q", "--from", str(lo), "--to", str(hi), "--steps", str(SWEEP_STEPS),
    ]


def verify_argv(rng: random.Random) -> list[str]:
    return ["verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(rng.randrange(1 << 31))]


# ---------------------------------------------------------------------------
# finite-certs: intersections of 2-3 balls in the admissible n-window

WIDE_LO, WIDE_HI = 10**9, 10**12


def _radius(rng: random.Random, wide: bool) -> F:
    if wide:
        return F(rng.randint(WIDE_LO, WIDE_HI), rng.randint(WIDE_LO, WIDE_HI))
    return rational_between(rng, F(1, 64), 64, max_den=16)


def finite_argv(rng: random.Random, wide: bool) -> list[str]:
    """One `finite` call on an intersection of 2 or 3 balls.

    N = 2^k with 3 ≤ k ≤ 10; q in (1, 8]; n uniform in the window where the
    display formula holds (1 ≤ n ≤ N/2, and n ≥ N^(2/q) when q > 2).  Ball
    exponents avoid the thresholds q and 2, where the branch is undefined.
    Wide calls draw every radius with numerator and denominator in
    [10^9, 10^12], so building the exact values needs real factoring.
    """
    while True:
        q = rational_between(rng, 1, 8)
        N = 2 ** rng.randint(3, 10)
        a, b = q.numerator, q.denominator
        n_lo = 1
        if q > 2:
            n_lo = max(1, math.floor(N ** (2 * b / a)) - 2)
            while n_lo**a < N ** (2 * b):
                n_lo += 1
        if n_lo <= N // 2:
            break
    n = rng.randint(n_lo, N // 2)
    balls = []
    for _ in range(rng.randint(2, 3)):
        while True:
            p = "inf" if rng.random() < 1 / 6 else rational_between(rng, 1, 10)
            if p == "inf" or (p != q and p != 2):
                break
        balls.append(f"{p}:{_radius(rng, wide)}")
    return ["finite", "--N", str(N), "--n", str(n), "--q", str(q),
            "--balls", ",".join(balls), "--format", "json"]


# ---------------------------------------------------------------------------
# strata and cycles


def _exp(d, high_q, straddle):
    return lambda rng: exponent_argv(rng, d, high_q, straddle)


STRATA = {}
for _d in (4, 6, 8):
    for _side, _high in (("lo", False), ("hi", True)):
        STRATA[f"d{_d}-{_side}-straddle"] = _exp(_d, _high, True)
        STRATA[f"d{_d}-{_side}-plain"] = _exp(_d, _high, False)
STRATA["d12-lo-straddle"] = _exp(12, False, True)
STRATA["sweep"] = sweep_argv
STRATA["verify"] = verify_argv
STRATA["finite-narrow"] = lambda rng: finite_argv(rng, wide=False)
STRATA["finite-wide"] = lambda rng: finite_argv(rng, wide=True)


def _exponent_cycle() -> list[str]:
    # d and the side of q alternate slot by slot so heavy and light calls
    # interleave.  Each half holds one straddling and three plain specs per
    # (d, side); one straddling d = 12 spec sits between the halves.  With
    # this mix the 90th-percentile latency falls inside the d = 6 and d = 8
    # straddling calls rather than in a gap between cost clusters, which
    # keeps it steady from seed to seed.
    order = [(4, "lo"), (6, "hi"), (8, "lo"), (4, "hi"), (6, "lo"), (8, "hi")]
    kinds = ("straddle", "plain", "plain", "plain")
    half = [f"d{d}-{side}-{kind}" for kind in kinds for d, side in order]
    return half + ["d12-lo-straddle"] + half


CYCLES = {
    "exponent-highd": _exponent_cycle(),
    "batch-d2": ["sweep", "verify"],
    "finite-certs": ["finite-narrow", "finite-narrow", "finite-wide", "finite-narrow"],
}

# Slots run before timing starts, from the same catalogs.
WARMUP = {
    "exponent-highd": ["d4-lo-plain", "d4-hi-straddle"],
    "batch-d2": ["sweep", "verify"],
    "finite-certs": ["finite-narrow", "finite-wide"],
}

WORKLOADS = tuple(CYCLES)


def entry_argv(stratum: str, index: int) -> list[str]:
    """Catalog entry `index` of `stratum`, drawn from its own seeded stream."""
    return STRATA[stratum](random.Random(f"{stratum}/{index}"))
