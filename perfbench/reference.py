"""A fixed reference kernel that measures how fast the machine runs right now.

The 2-vCPU machines this benchmark runs on change speed by up to 1.9x over
tens of seconds, for every process on them at once (see the README). A stage
timing on its own cannot tell that from a change in the program. So before
each timed stage the benchmark times this kernel, which does the same kinds of
work as the program (building and splitting CSV-like strings, int parsing,
tuple-keyed dict lookups, numpy key encoding and bincount) but calls no
dolearn code, and reports the stage's time scaled to the speed at which the
kernel takes REFERENCE_S:

    scaled = measured * REFERENCE_S / kernel_time

A change to the program moves `measured` and not `kernel_time`; a slower
machine moves both.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on one vCPU of a 2-vCPU Intel Xeon virtual machine
# in its fast phase; it only sets the scale of the reported seconds.
REFERENCE_S = 0.010

_rng = np.random.default_rng(0)
_ROWS = _rng.integers(0, 3, size=(1500, 14)).tolist()
_INDEX = {tuple(row[:4]): i for i, row in enumerate(_ROWS)}
_MATRIX = _rng.integers(0, 2, size=(100_000, 8))


def _kernel() -> int:
    lines = [",".join([str(v) for v in row]) for row in _ROWS]
    parsed = [[int(v) for v in line.split(",")] for line in lines]
    total = 0
    for row in parsed:
        total += _INDEX.get(tuple(row[:4]), 0)
    key = np.zeros(_MATRIX.shape[0], dtype=np.int64)
    for c in range(_MATRIX.shape[1]):
        key = key * 2 + _MATRIX[:, c]
    return total + int(np.bincount(key).sum())


def kernel_seconds() -> float:
    """Best of two timings of the kernel."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
