"""Machine-speed calibration for hosts whose speed drifts.

On a shared host the same pure-Python work can take up to twice as long
from one minute to the next, because other tenants load the same cores.
That drift is far larger than the changes the benchmark has to resolve, so
every time metric is scaled to a fixed reference speed:

* the worker runs a fixed kernel (exact `Fraction` sums, the same kind of
  work widthcalc does, and no widthcalc code) before the first op and
  after every op;
* an op's latency is multiplied by `REFERENCE_S` over the mean of the two
  kernel times on either side of it.

The speed also moves within a second, so only the kernels right next to an
op track it; a wider window measurably blurs the scaling.  A metric
therefore reads as the time the op would take on this host when the kernel
runs in `REFERENCE_S`.  The raw wall-clock figures are reported next to the
scaled ones.  The kernel runs with the cyclic garbage collector off, so a
change that leaves more live objects behind cannot slow the kernel and hide
its own cost.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.004


def kernel() -> float:
    """Seconds taken by the fixed calibration workload."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1500):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def kernel_median(repeats: int = 3) -> float:
    return statistics.median(kernel() for _ in range(repeats))


def scaled(latencies: list[float], kernels: list[float]) -> list[float]:
    """Latencies at reference speed; kernels[i] ran before op i, kernels[i + 1] after it."""
    return [lat * 2 * REFERENCE_S / (kernels[i] + kernels[i + 1])
            for i, lat in enumerate(latencies)]
