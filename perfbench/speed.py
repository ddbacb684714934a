"""Machine-speed sampling, so that a slow spell of the machine is not read as
a slow program.

On a shared machine the speed of pure-Python code drifts: one fixed unit of
torictower work took anywhere from 0.52 s to 1.03 s within a minute on a
2-core x86-64 container, in CPU time as much as in wall time.  A fixed
reference computation, timed at the same moments, drifts with it.

`Sampler` runs `reference()` twice from a SIGALRM handler every
`INTERVAL_S` seconds of wall time, in the main thread, between two bytecodes
of whatever is running, and times the second call (the first warms the
caches, so that the program's use of them does not show).  Each sample gives
the machine's speed at that moment as `NOMINAL_S / sample`.  Work that took
`t` seconds while the samples averaged a speed `v` would have taken `t * v`
seconds on the machine at its nominal speed: that product is what the
benchmark reports.  The time spent
in the handler is counted in `spent`, so that callers can leave it out of
the time they measure.

The reference uses nothing from torictower, so a change to the package does
not move it.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Seconds of one `reference()` call at the nominal speed: a round figure a
# little above its fastest time on a 2-core x86-64 container with CPython
# 3.11 (0.39 ms; loaded, it took 0.45 to 0.8 ms).  Only the unit of the
# reported times depends on it.
NOMINAL_S = 0.00045

_MATRICES = tuple(
    tuple(tuple((7 * seed + 3 * r * r + 5 * c + r * c) % 11 - 5 for c in range(5)) for r in range(5))
    for seed in range(8)
)


def reference():
    """A fixed pure-Python computation of the kind the package does: integer
    row reduction on small matrices, rational sums, tuples, sets and dicts."""
    seen = {}
    for matrix in _MATRICES:
        rows = [list(row) for row in matrix]
        for col in range(5):
            for r in range(col + 1, 5):
                while rows[r][col]:
                    q = rows[col][col] // rows[r][col]
                    rows[col] = [a - q * b for a, b in zip(rows[col], rows[r])]
                    rows[col], rows[r] = rows[r], rows[col]
        key = tuple(tuple(row) for row in rows)
        seen[key] = frozenset(abs(x) for row in rows for x in row)
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i % 7 + 1, i)
    return len(seen), total


class Sampler:
    """Samples `reference()` from a wall-clock timer while started."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def sample(self):
        start = time.perf_counter()
        reference()
        mid = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - mid)
        self.spent += time.perf_counter() - start

    def _tick(self, _signum, _frame):
        self.sample()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, first=0, last=None):
        """Mean speed (nominal = 1) over samples[first:last]."""
        return statistics.fmean(NOMINAL_S / s for s in self.samples[first:last])
