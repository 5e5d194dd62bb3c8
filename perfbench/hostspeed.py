"""Host speed, read from a fixed routine of the benchmark's own.

The shared 2-vCPU host the reference figures come from ran the same code up
to 1.5x slower for minutes at a time, as other tenants came and went.  So
the operation times the benchmark reports are scaled to the host's nominal
speed: the times of one round are multiplied by NOMINAL_S over the median
time the reference routine took between the round's operations.  The
routine is a plain integer loop; the README gives how much it steadied the
figures.  A sparse polynomial product and a sort of tuples, tried in its
place, overcorrected on some workloads.  The loop allocates nothing that
the garbage collector tracks, so its time does not depend on how much
memory the program under test holds.
"""

from __future__ import annotations

import statistics
import time

# the routine's median time over 916 readings on the host of the README's
# reference figures, so that scaled times read as seconds on that host
NOMINAL_S = 0.0026


def reference_s() -> float:
    """Seconds the reference routine takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return time.perf_counter() - t0


def factor(readings: list[float]) -> float:
    """What times taken among these reference readings are multiplied by."""
    return NOMINAL_S / statistics.median(readings)
