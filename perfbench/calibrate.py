"""The speed of the processor over time, from a fixed pure-Python kernel.

On the shared two-vCPU machine the reference figures come from, one
thread's speed changes by up to 1.7x within seconds, and stays low for a
minute at a time, as the host's other tenants come and go; the guest sees
almost no steal time, so process CPU time does not help.  A time taken
there is the program's cost times the speed of that moment.

:class:`SpeedLog` runs KERNEL from a SIGALRM handler every INTERVAL_S
while the workload runs, and :meth:`SpeedLog.ref_seconds` turns a wall
interval into the time it would have taken at the speed the kernel has on
a quiet core of that machine (REFERENCE_S), leaving out the handler's own
time.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_S = 0.0027  # KERNEL on a quiet core of the reference machine
INTERVAL_S = 0.2


def kernel() -> int:
    s, x = 0, 1
    for k in range(20000):
        s += k * k
        x = (x * 3 + k) % 1000003
    return s + x


class SpeedLog:
    """Kernel timings (start, end) taken every INTERVAL_S between start()
    and stop(); speed = REFERENCE_S / kernel time, 1 on a quiet core."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def ref_seconds(self, t0: float, t1: float) -> float:
        """The interval's wall time less the samples taken inside it, times
        the mean speed of the samples within INTERVAL_S of it (at least the
        nearest one)."""
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL_S)
        if lo == hi:  # no sample near: take the nearest
            lo = max(0, min(lo, len(self.starts) - 1))
            hi = lo + 1
        speeds = [REFERENCE_S / (self.ends[i] - self.starts[i]) for i in range(lo, hi)]
        inside = sum(min(e, t1) - max(s, t0) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])
                     if e > t0 and s < t1)
        return (t1 - t0 - inside) * sum(speeds) / len(speeds)

    def mean_speed(self) -> float:
        return sum(REFERENCE_S / (e - s) for s, e in zip(self.starts, self.ends)) / len(self.starts)
