"""A fixed reference workload that measures how fast the host runs now.

On a shared host the same Python code runs up to twice as fast or slow
from one minute to the next, as other tenants come and go.  The
benchmark therefore times this workload between items and scales each
item's time by ``REFERENCE_S / (time of this workload around the item)``.
It does the kinds of work the package spends its time on: ``Fraction``
arithmetic, fraction-free integer row reduction, and building tuples and
dicts.  It uses only the standard library, so no change to the package
can change it.
"""

import statistics
import time
from fractions import Fraction

# the reference workload's time at the speed the reported values refer to
# (its typical time on a 2-core x86-64 host running Python 3.11)
REFERENCE_S = 0.0045


def host_speed(seconds):
    """Time of the reference workload now, as the median of enough runs to
    take about 3% of ``seconds``, the duration of the work to be scaled."""
    runs = max(1, round(0.03 * seconds / REFERENCE_S))
    return statistics.median(reference_seconds() for _ in range(runs))


def reference_seconds():
    """Run the reference workload once; return its wall time in seconds."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    m = [[(i * 7 + j * 13) % 17 - 8 for j in range(12)] for i in range(12)]
    for c in range(12):
        p = next((r for r in range(c, 12) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(12):
            if r != c and m[r][c]:
                a, b = m[c][c], m[r][c]
                m[r] = [a * x - b * y for x, y in zip(m[r], m[c])]
    table = {}
    for i in range(3000):
        table[(i, i % 7)] = tuple(m[i % 12][:3])
    return time.perf_counter() - t0
