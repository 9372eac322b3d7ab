"""A gauge of how fast this machine runs Python right now.

On a shared machine the speed of one core changes by up to 2x within
seconds, as other tenants come and go.  Every time the benchmark reports is
therefore scaled by REFERENCE_S / (mean of the gauge readings taken just
before, during and just after the timed work): it is the time the work
would take on a core that runs the gauge loop in REFERENCE_S seconds.  The
gauge runs no qedc code, so a change to qedc moves scaled and raw times
alike.
"""
from __future__ import annotations

import statistics
from time import perf_counter

class _BitPair:
    """Two bit masks, like the X and Z parts of a Pauli string."""

    __slots__ = ("x", "z")

    def __init__(self, x: int, z: int):
        self.x, self.z = x, z

    def anticommutes(self, other: "_BitPair") -> bool:
        return bin(self.x & other.z).count("1") % 2 != bin(self.z & other.x).count("1") % 2


GAUGE_ITEMS = tuple(range(4000))
GAUGE_PAIRS = tuple(_BitPair((i * 2654435761) & 0xFFFFF, (i * 40503) & 0xFFFFF)
                    for i in range(1000))
GAUGE_ROUNDS = 60
# about the gauge's reading on a quiet core of the machine this benchmark
# was built on
REFERENCE_S = 0.08


def gauge() -> float:
    """Seconds to build a fixed series of integer frozensets now.

    Half the sets come from arithmetic on integers, half from a method call
    per item, as in qedc's Pauli-propagation loops.  Like qedc's own code
    this hashes and allocates Python objects, so it slows down when other
    tenants contend for caches and memory as well as when the core itself
    is slower.  On the machine this benchmark was built on, a pure
    arithmetic loop tracked the compile of `pcs_wide` only half as well as
    the integer sets; adding the method calls cut the spread of its scaled
    medians over eight calls from 8% to 5%, and left that of `sample` on
    every workload at 3-4%."""
    t0 = perf_counter()
    for k in range(GAUGE_ROUNDS):
        frozenset(i for i in GAUGE_ITEMS if (i * 2654435761 + k) & 7)
        ref = GAUGE_PAIRS[k]
        frozenset(i for i, p in enumerate(GAUGE_PAIRS) if p.anticommutes(ref))
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor for work done between two gauge readings."""
    return REFERENCE_S / (0.5 * (before + after))


class Scaler:
    """Reads the gauge between pieces of timed work and keeps every reading.

    `spent` is the time the readings took, which the caller keeps out of the
    work it times."""

    def __init__(self):
        self.spent = 0.0
        self._readings: list[float] = []
        self.read()
        self._mark = 0

    def read(self) -> float:
        t0 = perf_counter()
        now = gauge()
        self.spent += perf_counter() - t0
        self._readings.append(now)
        return now

    def next(self) -> float:
        """Reads the gauge; returns the factor for the work done since the
        previous `next()`, from the mean of every reading taken from then to
        now, both ends included."""
        self.read()
        window = self._readings[self._mark:]
        self._mark = len(self._readings) - 1
        return REFERENCE_S / statistics.fmean(window)

    def follow(self, fn) -> float:
        """Calls `fn`, which returns seconds of timed work, and returns those
        seconds scaled by the latest reading and one taken after the call;
        call it right after a reading."""
        before = self._readings[-1]
        seconds = fn()
        return seconds * scale(before, self.read())
