"""Machine-speed calibration.

On shared virtual machines speed can drift by half within seconds, and
CPU time drifts with wall time, so raw timings of the same work spread
too widely to compare commits.  Between requests the benchmark therefore
times a fixed calibration slice of pure-Python work that builds, groups
and sorts small tuples, as the library does, and expresses every timing
at a fixed reference speed:

    scaled = raw * (REFERENCE_SLICE_S / slice) ** ELASTICITY

where ``slice`` is the median slice time around the timing.  The library
slows less than a tight loop when the machine slows: on a 2-vCPU x86-64
virtual machine, over 71 one-second blocks of each workload, its time
varied as the slice time to the power 0.76 to 0.79 (correlation 0.78 to
0.93), which ``ELASTICITY`` records.  Raw timings are reported next to
the scaled ones.
"""

from __future__ import annotations

import statistics
import time

# The calibration slice's time at the reference speed, in seconds: about
# its median on that machine with Python 3.11.7.
REFERENCE_SLICE_S = 0.0006
ELASTICITY = 0.75
# Slices on each side of a timed interval whose median sets its speed.
WINDOW = 5


def calibration_slice() -> int:
    """Fixed work of about half a millisecond; returns a checksum so
    nothing is skipped."""
    rows = []
    for i in range(600):
        word = (i % 7, (i * 3) % 5, i % 11, i % 2)
        rows.append((word, word[:2], word[1:]))
    groups: dict = {}
    for word, head, tail in rows:
        groups.setdefault(head, []).append(tail)
    return len(groups) + len(sorted(rows))


def time_slice() -> float:
    start = time.perf_counter()
    calibration_slice()
    return time.perf_counter() - start


def scale_factors(slices: list[float], count: int) -> list[float]:
    """Speed factor of each of ``count`` timed intervals.

    ``slices[i]`` was timed just before interval ``i`` and ``slices[i + 1]``
    just after it, so ``len(slices) == count + 1``.  Interval ``i`` is
    scaled by the median of the slices within ``WINDOW`` places of it.
    """
    if len(slices) != count + 1:
        raise ValueError("need one calibration slice around every interval")
    factors = []
    for i in range(count):
        window = slices[max(0, i - WINDOW + 1): i + WINDOW + 1]
        factors.append((REFERENCE_SLICE_S / statistics.median(window)) ** ELASTICITY)
    return factors
