"""Host-speed probe interleaved with the timed operations.

The probe is a fixed piece of pure-Python ``Fraction`` and dict work that
imports nothing from crnlap.  This host switches between faster and
slower periods lasting seconds, so each operation is bracketed by probe
samples taken just before and just after it, and its time is scaled by
``REFERENCE_S / local probe time``.  ``REFERENCE_S`` is the probe's
median on the reference host (see README.md), so adjusted figures stay
in seconds.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median probe time on the reference host (2 cores, Python 3.11.7).
REFERENCE_S = 0.0040

# Probe samples taken after each operation (and once before the first).
SAMPLES = 2


def kernel() -> int:
    """Fixed work: rational accumulation, dict updates, a checksum."""
    acc = Fraction(0)
    table: dict[int, Fraction] = {}
    for i in range(1, 240):
        term = Fraction(i, i + 7) * Fraction(3, 2 * i + 1) - Fraction(1, i + 3)
        acc += term
        key = (i * 37) % 61
        table[key] = table.get(key, Fraction(0)) + term
    return acc.numerator % 1009 + sum(v.denominator % 7 for v in table.values())


CHECKSUM = kernel()


class Probe:
    """Probe samples in time order; `bracket` gives an operation's local speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.at: list[float] = []  # when each sample ended, from start
        self.start = time.perf_counter()
        self.mark = 0
        self.sample()

    def sample(self) -> None:
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            if kernel() != CHECKSUM:
                raise RuntimeError("host probe kernel returned a wrong checksum")
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            self.at.append(t1 - self.start)

    def bracket(self) -> float:
        """Call right after an operation: the median probe time of the samples
        taken just before it and the ones taken now."""
        before = self.mark
        self.mark = len(self.samples)
        self.sample()
        return statistics.median(self.samples[before:])

    def factor(self, local_s: float) -> float:
        """Multiplier from raw seconds at local probe time to reference seconds."""
        return REFERENCE_S / local_s
