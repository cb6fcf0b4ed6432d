"""Host speed probe: a fixed piece of work that shares no code with the
program.

The virtual machines this benchmark runs on change speed for tens of
seconds at a time, by a factor of up to 1.5, with no steal time
reported to the guest.  Whole runs then read uniformly slower, which
no statistic inside one run can undo.  The probe is timed next to every
measured batch or wave; such a timing is reported as it would read on
a host where the probe takes :data:`REFERENCE_S`, which cancels most of
the drift (measured: the spread of ten-second batch medians fell from
14% to 6% on ``sweep_tensor``, from 12% to 5% on ``sweep_cached`` and
from 6% to 2% on ``sweep_pool``).  The probe mixes what the program
spends its time on: interpreted loops, JSON encoding and decoding, and
NumPy sorting and FFTs.  It must never call into ``repro``, or a change
to the program would move its own yardstick.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable, Sequence

import numpy as np

#: Probe time on the reference host (2 vCPUs, Python 3.11, NumPy 2.4,
#: while the host was not slowed).
REFERENCE_S = 0.005

_DOC = {f"k{i}": [i, i * 0.5, "x" * 8] for i in range(400)}
_ARRAY = np.random.default_rng(0).random(20000)


def _work(clock: Callable[[], float]) -> float:
    started = clock()
    for _ in range(5):
        json.loads(json.dumps(_DOC))
    total = 0
    for i in range(30000):
        total += i * i
    np.sort(_ARRAY)
    np.fft.rfft(_ARRAY)
    return clock() - started


def probe(cpus: Sequence[int], clock: Callable[[], float] = time.perf_counter,
          repeats: int = 1) -> float:
    """Mean seconds the fixed work takes on each of ``cpus``.

    The host can slow one virtual CPU and not the other: a workload
    running in this process pins itself to one CPU and probes that one,
    a pooled workload probes every CPU its workers may run on.  The
    probe is timed by ``clock``, the clock the workload times itself
    by, and each CPU's time is the median of ``repeats`` timings.
    """
    saved = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(statistics.median(_work(clock)
                                           for _ in range(repeats)))
    finally:
        os.sched_setaffinity(0, saved)
    return sum(times) / len(times)
