"""The machine's speed while a run measures, from a fixed unit of stdlib work.

On a shared host the CPU's speed drifts by tens of percent over seconds to
minutes, and every timed job drifts with it.  A calibration unit (exact
Fraction products summed into a dict keyed by small integer tuples, like
the program's hot loops but never calling it) is timed between jobs.  A
duration scaled by REF_UNIT_S over the unit time measured around it is the
duration at the reference speed: what the job takes while one unit takes
REF_UNIT_S.  Only the machine moves the unit, so a change to the program
moves corrected times as much as raw ones.
"""

from __future__ import annotations

import bisect
import random
import time
from fractions import Fraction as Q

REF_UNIT_S = 0.0144  # median unit time on the 2-CPU Xeon the benchmark was introduced on
EVERY_S = 0.25  # at most this much job time between two units


def _operands() -> list[tuple[Q, tuple[int, int]]]:
    rng = random.Random(5)
    return [
        (Q(rng.randint(-9, 9), rng.randint(1, 6)), (rng.randint(0, 3), rng.randint(-2, 2)))
        for _ in range(60)
    ]


class Speed:
    def __init__(self):
        self._operands = _operands()
        self.times: list[float] = []  # midpoint of each unit, perf_counter seconds
        self.units: list[float] = []  # its duration

    def sample(self) -> None:
        ops = self._operands
        t0 = time.perf_counter()
        acc: dict = {}
        for c1, (a1, b1) in ops:
            for c2, (a2, b2) in ops:
                key = (a1 + a2, b1 + b2)
                acc[key] = acc.get(key, Q(0)) + c1 * c2
        unit = time.perf_counter() - t0
        self.times.append(t0 + unit / 2)
        self.units.append(unit)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_UNIT_S over the mean time of the units just before and after [start, end]."""
        before = bisect.bisect_left(self.times, start)
        after = bisect.bisect_right(self.times, end)
        near = self.units[max(before - 1, 0):after + 1]
        return REF_UNIT_S * len(near) / sum(near)
