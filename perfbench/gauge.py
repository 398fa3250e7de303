"""Gauges the machine's speed while the workload runs.

On a shared machine the CPU time of the same work swings by up to a factor
of two within seconds, as other tenants load the cores.  A gauge thread
times a fixed task every INTERVAL_S, in its own thread CPU time, for the
whole run.  A stretch of workload CPU time is scaled by REFERENCE_S over the
mean reading taken during that stretch, so work done while the machine is
slow counts what it would have cost at reference speed.  The task never
calls the library, so a change to the library cannot change its cost.
"""

from __future__ import annotations

import bisect
import math
import resource
import threading
import time
from fractions import Fraction

# thread CPU seconds of task() on an idle 2-vCPU Intel Xeon
REFERENCE_S = 0.0075


def task():
    """Fraction sums, fraction-free integer elimination and products of
    integer tuples reduced modulo a cyclotomic polynomial, as the library
    does."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i * i + 1, 3 * i + 2)
    return acc, _bareiss(13), _bareiss(17), _cyclotomic_powers(400)


def _cyclotomic_powers(count):
    # powers of 5 - 7z + 11z^2 + 13z^3 in Z[z]/(z^4 + 1), coefficients kept below 10^60
    acc = (1, 2, 3, 4)
    m = (5, -7, 11, 13)
    for _ in range(count):
        w = [0] * 7
        for a in range(4):
            for b in range(4):
                w[a + b] += acc[a] * m[b]
        acc = tuple((w[k] - (w[k + 4] if k < 3 else 0)) % 10**60 for k in range(4))
    return acc


def _bareiss(n):
    rows = [[((i * 7 + j * 13) ** 3) % 1009 - 504 for j in range(n)] for i in range(n)]
    prev = 1
    for c in range(n):
        piv = rows[c][c]
        for r in range(c + 1, n):
            rc = rows[r][c]
            rows[r] = [(piv * rows[r][k] - rc * rows[c][k]) // prev for k in range(n)]
        prev = piv
    return rows


class SpeedGauge:
    INTERVAL_S = 0.03
    MIN_READINGS = 4  # a stretch with fewer is widened to its nearest readings

    def __init__(self):
        self._times = []
        self._readings = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-gauge", daemon=True)
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)

    def _loop(self):
        while not self._stop.wait(self.INTERVAL_S):
            t0 = time.thread_time()
            task()
            reading = time.thread_time() - t0
            self._readings.append(reading)
            self._times.append(time.monotonic())

    def cpu(self) -> float:
        """CPU of this process and every child it has waited for, less the
        gauge thread's own."""
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
        return total - time.clock_gettime(self._clock)

    def factor(self, start: float, end: float) -> float:
        """Scale for CPU time spent between two time.monotonic() instants."""
        while len(self._times) < self.MIN_READINGS or self._times[-1] <= end:
            if not self._thread.is_alive():
                raise RuntimeError("the speed gauge thread has stopped")
            time.sleep(self.INTERVAL_S)
        times = self._times[:]
        i = bisect.bisect_left(times, start)
        j = bisect.bisect_right(times, end) + 1  # the first reading after end
        while j - i < self.MIN_READINGS:
            if i > 0 and (j >= len(times) or start - times[i - 1] <= times[j] - end):
                i -= 1
            else:
                j += 1
        return REFERENCE_S / math.fsum(self._readings[i:j]) * (j - i)

    def close(self):
        self._stop.set()
        self._thread.join()
