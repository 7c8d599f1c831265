"""Scaling measured times to a fixed host speed.

The sandbox this benchmark was written on changes CPU speed in phases of a
few seconds, and its slow phases run at about half speed.  A raw wall time
therefore says as much about the phase as about zgap.  Each timed operation is
bracketed by a short fixed pure-Python loop (exact rationals and floats,
like zgap's own work) on the same CPU, and its time is scaled by
``NOMINAL_S / (mean of the two loop times)``.  The result is the operation's
time in seconds at the speed where the loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable

NOMINAL_S = 0.015


def reference_s() -> float:
    """Wall time of one run of the fixed reference loop."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 900):
        acc += Fraction(k * k + 1, k + 3)
    total = 0.0
    for i in range(90_000):
        total += (i * 0.5) ** 0.5
    return time.perf_counter() - start


class SpeedGauge:
    """Scales each measured time by the reference loop run just before and
    just after it.  Call `scaled` right after each timed operation."""

    def __init__(self, reference: Callable[[], float] = reference_s) -> None:
        self._reference = reference
        self._last = reference()

    def scaled(self, seconds: float) -> float:
        now = self._reference()
        speed = NOMINAL_S / (0.5 * (self._last + now))
        self._last = now
        return seconds * speed
