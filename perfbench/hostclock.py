"""Host-speed reference for the timings.

The benchmark was defined on a shared 2-vCPU x86 virtual machine
whose speed drifts by +-20% between 10-second windows: a fixed
pure-Python loop takes 25 ms in one window and 37 ms in the next,
and one unchanged sweep op spreads over an interquartile range of
30% of its median within a minute. That drift, not the program,
would set the run-to-run spread of every timing.

So every timed interval is bracketed by probes of a short fixed loop,
and the benchmark reports the interval scaled to the loop's reference
time:

    reported = measured * REFERENCE_S / mean(probe before, probe after)

Program changes do not touch the loop, so they show in full; host
speed drifts hit both and cancel to first order (on the op above the
spread halves). The raw times are kept in the run record.
"""

from __future__ import annotations

import time

# median time of probe() on the host the benchmark was defined on
REFERENCE_S = 0.010
_LOOP = 150_000


def _loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i
    return time.perf_counter() - start


def probe() -> float:
    """Seconds taken by a fixed interpreter loop, median of three
    runs so that one preempted run does not count."""
    return sorted(_loop() for _ in range(3))[1]


def timed(fn):
    """Run ``fn()`` between two probes. Returns (result or the
    exception it raised, measured seconds, mean probe seconds)."""
    before = probe()
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as err:  # the caller sorts out what failed
        result = err
    elapsed = time.perf_counter() - start
    return result, elapsed, 0.5 * (before + probe())


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` at the reference host speed."""
    return seconds * REFERENCE_S / probe_s
