"""A fixed pure-Python reference loop that measures the machine's current speed.

On a shared machine the same work can take twice as long from one minute to
the next. The benchmark runs this loop next to the work it measures and
scales each measured time by ``NOMINAL_S / (time the loop took)``: a time in
reference-calibrated seconds is the time the work would take on a machine
where one chunk of this loop takes ``NOMINAL_S``. The loop uses only the
standard library (``Fraction`` arithmetic and big-integer multiply, divide
and reduce, like the exact simplex), so no change to the library moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# A fixed scale, close to the median chunk time on the 2-vCPU Intel Xeon
# virtual machine (CPython 3.11) where the baseline was recorded; there the
# same chunk took from 1.1 to 2.7 ms as the machine's load changed.
NOMINAL_S = 0.002
CHUNK_STEPS = 200


def chunk() -> None:
    acc = 0
    a, b = 3**120, 7**90
    for k in range(1, CHUNK_STEPS + 1):
        f = Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 3) + Fraction(1, k)
        acc += f.numerator % 7
        a, b = (a * (k + 5) - b * 3) // 2 + b, (b * (k + 7) + a) // 3
        a %= 1 << 400
        b %= 1 << 400
    if acc < 0:  # keep the result observable
        raise AssertionError


def chunk_seconds(at_least: float = 0.0) -> float:
    """Mean seconds per chunk, running whole chunks until ``at_least`` seconds."""
    clock = time.perf_counter
    total = 0.0
    count = 0
    while count == 0 or total < at_least:
        start = clock()
        chunk()
        total += clock() - start
        count += 1
    return total / count
