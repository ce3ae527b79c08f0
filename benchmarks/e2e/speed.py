"""CPU-speed calibration of CPU-bound timings.

On a shared virtual machine a vCPU's speed drifts: the same fixed loop
can take twice as long for seconds or minutes at a time, and each vCPU
drifts on its own.  Raw timings of CPU-bound work then move with the
host's load, not with the code.  The benchmark therefore pins its
processes to known CPUs and, next to every timed piece of CPU-bound work,
times a fixed reference loop on the CPUs that did the work.  A timing
is reported *calibrated*: scaled to the speed at which the reference
loop takes ``REFERENCE_S``::

    calibrated = raw * REFERENCE_S / probe

The reference loop is stdlib Python only — dict inserts, small
allocations, string formatting and a keyed sort, the same kind of
interpreted object work the package does — so no change to the package
can speed it up, and it slows down with the vCPU the way the package's
code does.  Probes run only while the measured work is idle, so they
never compete with it.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Sequence

#: Time of one reference loop at the reference speed (s): a round value
#: inside the 3-8 ms the loop took on a shared 2-vCPU VM, so calibrated
#: times read close to raw ones there.
REFERENCE_S = 0.004
#: Reference loops per probe of one CPU; a probe reports their median.
PROBE_LOOPS = 3


def cpus() -> list[int]:
    """The CPUs the calling thread may run on, in order."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return []


def pin(cpu_set: Sequence[int]) -> None:
    """Restrict the calling thread (and what it forks later) to ``cpu_set``."""
    if cpu_set and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cpu_set))


def _reference_loop() -> int:
    table: dict = {}
    for i in range(12_000):
        key = (i * 7919) % 2003
        table[key] = [i, str(i), (key, i)]
    return len(sorted(table.items(), key=lambda item: item[1][1]))


def _probe_here() -> float:
    times = []
    for _ in range(PROBE_LOOPS):
        started = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def probe(cpu_set: Sequence[int]) -> float:
    """Reference-loop time (s) on ``cpu_set``: each CPU is timed pinned
    to it, and the result is their harmonic mean, the time matching the
    CPUs' mean speed.  The caller's CPU affinity is restored.  Without
    CPUs to pin to, the loop runs wherever the caller does."""
    if not cpu_set or not hasattr(os, "sched_setaffinity"):
        return _probe_here()
    original = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpu_set:
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_here())
    finally:
        os.sched_setaffinity(0, original)
    return statistics.harmonic_mean(times)


def calibrate(raw_s: float, *probes: float) -> float:
    """``raw_s`` scaled to the reference speed, by the mean of the probes
    taken around it."""
    return raw_s * REFERENCE_S / statistics.fmean(probes)
