"""The reference loop that turns raw durations into calibrated ones.

A calibrated duration is a raw duration rescaled to a fixed reference
speed: the speed at which one reference measurement reads exactly
`REF_SECONDS`.  The reference is timed right before and right after each
measured operation, in the same process, so a host that runs slower for
a while (frequency scaling, a busy neighbour) slows both the operation and
the reference, and the ratio stays put.

The reference is plain Python of the kind the program spends its time on,
in two parts timed apart:

- a compute part: small-integer arithmetic, tuple building, dict updates
  and function calls, all in a few cache lines;
- a memory part: a few thousand frozensets built, indexed and walked in a
  scattered order, as the program does with its cycle and vertex sets.

A slow host does not slow the two parts alike, and the program sits in
between, so the reference time is the compute part plus a fifth of the
memory part.  That weight made the calibrated medians of six runs per
workload agree best, on a 2-vCPU VM whose raw speed varied by 1.7 times
between runs.  The loop never imports or calls the program, pauses the
garbage collector while it runs, and drops everything it allocates when it
returns.
"""

from __future__ import annotations

import gc
import time

REF_SECONDS = 0.0015  # one reference measurement at the reference speed
MEMORY_WEIGHT = 0.2
_ROUNDS = 560
_ITEMS = 2500


def _step(acc: int, x: int) -> int:
    return (acc * 31 + x) % 1000003


def compute_part() -> int:
    acc = 0
    counts: dict = {}
    for i in range(_ROUNDS):
        pair = (i & 7, i >> 3)
        counts[pair[0]] = counts.get(pair[0], 0) + 1
        s = frozenset((i, i + 1, i + 2))
        if i in s:
            acc = _step(acc, pair[1])
        acc ^= len(s) + counts[pair[0]]
        for k in range(4):
            acc = _step(acc, k + i)
    return acc


def memory_part() -> int:
    items = [frozenset((i, i * 7 % 1009, i * 13 % 2003)) for i in range(_ITEMS)]
    table = {}
    for i, s in enumerate(items):
        table[(i & 511, len(s))] = s
    acc, j = 0, 0
    for _ in range(_ITEMS):
        j = (j * 31 + 17) % _ITEMS
        acc += len(items[j] & items[(j + 1) % _ITEMS])
    return acc + len(table)


def time_reference() -> float:
    """Raw seconds of one reference measurement."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        compute_part()
        t1 = time.perf_counter()
        memory_part()
        t2 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (t1 - t0) + MEMORY_WEIGHT * (t2 - t1)


def factor(ref_before: float, ref_after: float) -> float:
    """Multiplier from raw seconds to calibrated seconds for a duration
    bracketed by two reference measurements."""
    return REF_SECONDS / ((ref_before + ref_after) / 2.0)


class CalibratedClock:
    """Raw and calibrated time summed over stretches, each bracketed by
    reference measurements.  A stretch runs from `start()` (or the end of
    the last lap) to `lap()`; the measurements themselves are not timed."""

    def __init__(self, on_lap=None):
        self.raw = 0.0
        self.cal = 0.0
        self._on_lap = on_lap
        self._ref = time_reference()
        self._start = time.perf_counter()

    def start(self) -> None:
        self._start = time.perf_counter()

    def lap(self):
        """Close the current stretch; returns (raw seconds, factor)."""
        raw = time.perf_counter() - self._start
        ref = time_reference()
        f = factor(self._ref, ref)
        self._ref = ref
        self.raw += raw
        self.cal += raw * f
        if self._on_lap is not None:
            self._on_lap(f)
        self._start = time.perf_counter()
        return raw, f
