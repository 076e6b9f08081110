"""Host speed, measured during the benchmark's calls with fixed reference code.

On a shared host the same code runs 15-40 % faster or slower from one
stretch of a few seconds to the next, in processor time as much as in wall
time, because other tenants share the processor and its caches.  So while
it times calls, the benchmark also times reference code that does not use
gtsystems, and scales each call's seconds to the speed at which the
reference code takes NOMINAL_S.  A change to gtsystems moves scaled times
as it moves raw times; a change of host speed moves the call and the
reference code alike, and cancels.

The reference code runs from a SIGALRM handler every EVERY_S, also in the
middle of a call, and the time it took is taken out of that call's time.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
import time

# seconds of one reference sample at nominal speed, about the median on
# the 2-vCPU host where the benchmark was defined
NOMINAL_S = 0.015
EVERY_S = 0.2
# a call is scaled by the samples taken while it ran and within this many
# seconds of it
WINDOW_S = 1.0

_TABLE = list(range(400_000))
random.Random(1).shuffle(_TABLE)


def reference():
    """Work like the program's: a plain integer loop, big-integer and dict
    arithmetic, and dependent reads scattered over a list of 400 000 ints."""
    s = 0
    for i in range(50_000):
        s += i * i % 7
    table, x = {}, 3 ** 400
    for i in range(1_500):
        k = (i * 7919) % 1009, i % 13
        table[k] = table.get(k, 0) + x * i
        x = (x * 1234567) % (1 << 1200)
    sorted(table.items())
    j = 0
    for _ in range(15_000):
        j = _TABLE[j]
    return s, j


class HostSpeed:
    """Reference samples taken during a run, and what they give a call."""

    def __init__(self):
        reference()  # the first pass faults in _TABLE's pages and is slow
        self.times, self.seconds = [], []  # start and duration of each sample

    def sample(self, n=1):
        for _ in range(n):
            start = time.perf_counter()
            reference()
            self.times.append(start)
            self.seconds.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def ticking(self):
        """Sample EVERY_S after the last sample ended while the body runs.
        Call sample() only outside the body, so that samples stay in order."""

        def tick(signum, frame):
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, EVERY_S)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def paused(self, start, end):
        """Seconds spent sampling between start and end."""
        return sum(self.seconds[bisect.bisect_left(self.times, start):
                                bisect.bisect_left(self.times, end)])

    def scale(self, start, end):
        """Factor from raw seconds of a call that ran from start to end to
        seconds at nominal speed: the last sample before it, the first after
        it and all within WINDOW_S of it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.seconds[max(0, min(lo, bisect.bisect_right(self.times, start) - 1)):
                            max(hi, bisect.bisect_left(self.times, end) + 1)]
        return NOMINAL_S / statistics.median(near)
