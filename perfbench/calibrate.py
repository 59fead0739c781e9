"""A fixed calibration loop that measures how fast the machine runs right now.

On a shared machine the speed of this process changes by up to 2x over
seconds to minutes as other tenants come and go, and the program's CPU
time stretches with it.  The benchmark times this loop between ops and
reports every op time scaled to a machine on which the loop takes
REFERENCE_S: op seconds * REFERENCE_S / loop seconds.  The loop is
plain CPython integer, big-integer and Fraction work like the program's,
and it never changes, so a change to hexcount moves the scaled times and
a change of machine speed does not.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Tuple

REFERENCE_S = 0.010


def _work() -> int:
    acc = 0
    for i in range(1, 20000):
        acc += (i * i * 12345678901234567) // (i + 7)
    harmonic = Fraction(0)
    for i in range(1, 1500):
        harmonic += Fraction(1, i)
    product = 1
    for i in range(1, 3000):
        product *= i + 12345
    return acc ^ harmonic.denominator ^ product


def calibrate(min_s: float = 0.0) -> Tuple[float, float]:
    """Mean wall and CPU seconds of one loop, over as many loops as fill ``min_s`` (at least one)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    loops = 0
    while loops == 0 or time.perf_counter() - wall0 < min_s:
        _work()
        loops += 1
    return (time.perf_counter() - wall0) / loops, (time.process_time() - cpu0) / loops
