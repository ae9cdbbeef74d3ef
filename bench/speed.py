"""Timing scaled to a reference speed.

The interpreter's speed on a shared machine swings by up to 1.7x within
seconds (other tenants on the same cores), which swamps wall-clock medians.
While a `SpeedClock` runs, a SIGALRM handler times a fixed reference loop
every PERIOD seconds.  `scaled(t0, t1)` takes an interval's wall time,
removes the handler's own time, and rescales it by the reference samples
taken during it: the result is the interval's length in seconds on a
machine where the reference loop takes REF_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.02
REF_S = 0.0002
LOOKBACK = 0.05  # samples this far before an interval count for short ones

clock = time.perf_counter


def reference_loop() -> int:
    """Breadth-first search over a fixed 150-vertex circulant graph, then a
    recursive bitmask count of its independent sets on 12 vertices: the
    container work of graph code and the call-heavy work of a search."""
    n = 150
    adj = [((v + 1) % n, (v + 7) % n, (v + 31) % n) for v in range(n)]
    dist = {0: 0}
    queue = [0]
    for v in queue:
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    nbr = [(1 << (v + 1) % 12) | (1 << (v + 11) % 12) | (1 << (v + 5) % 12)
           for v in range(12)]

    def count(v: int, banned: int) -> int:
        if v == 12:
            return 1
        total = count(v + 1, banned)
        if not banned >> v & 1:
            total += count(v + 1, banned | nbr[v])
        return total

    return len(dist) + count(0, 0)


class SpeedClock:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = clock()
        reference_loop()
        self.starts.append(start)
        self.durations.append(clock() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        time.sleep(LOOKBACK + PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds at reference speed that the interval [t0, t1] took."""
        lo = bisect.bisect_left(self.starts, t0 - LOOKBACK)
        first = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        window = self.durations[lo:hi] or self.durations[-1:]
        busy = (t1 - t0) - sum(self.durations[first:hi])
        return busy * REF_S * statistics.fmean(1 / d for d in window)

    def speed(self) -> float:
        """Median reference speed over the run, as a multiple of REF_S's."""
        return REF_S / statistics.median(self.durations)
