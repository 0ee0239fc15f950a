"""Machine-speed calibration, so timings from a shared, drifting host compare.

The container shares its cores with other tenants.  The same computation,
timed in back-to-back processes, takes up to 1.7x longer from one minute to
the next, and process CPU time rises with it, so no clock inside the
process separates the slowdown out.  A fixed kernel that does not touch
the program is therefore timed between ops; an op's wall time is divided by
the kernel's mean slowdown over the run.  Over runs minutes apart, the
ratio of program time to kernel time stayed within about 2% while raw times
moved 25%.

The kernel mixes interpreter bytecode, small numpy calls and a JSON round
trip, the three kinds of work the CLI's ops are made of.  It is small and
stays in cache: a pass over arrays larger than the caches tracked the
memory-bound ops no better in trials, and raised the peak memory the
benchmark reports.  The garbage
collector is paused while it runs, so the program's heap does not change
its cost.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

import numpy as np

# Median kernel time on the 2-core container where the benchmark was defined;
# times divided by the measured slowdown are "at reference speed".
REFERENCE_S = 0.005
# The host flips between a fast and a slow state within milliseconds, so one
# kernel run is a coin toss; the mean of many, taken between every pair of
# ops, follows the share of time spent slow.
SAMPLES = 3

_ARRAYS = [np.random.default_rng(k).random(64) + 0.5 for k in range(32)]
_DOC = {"rows": [[i * j / 7.0 for i in range(40)] for j in range(40)], "ids": list(range(200))}


def _kernel() -> float:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    acc = 0.0
    for _ in range(20):
        for a in _ARRAYS:
            acc += float(np.sum(np.log1p(1.0 / a)))
    json.loads(json.dumps(_DOC))
    return total + acc


def samples(count: int = SAMPLES) -> list[float]:
    """``count`` kernel times divided by REFERENCE_S: 1.0 at reference speed, above 1 when slower."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(count):
            start = perf_counter()
            _kernel()
            out.append((perf_counter() - start) / REFERENCE_S)
        return out
    finally:
        if enabled:
            gc.enable()
