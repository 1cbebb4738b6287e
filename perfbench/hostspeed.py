"""Host-speed probe: scales wall times to a nominal host speed.

The cores this benchmark gets are shared with other tenants, and their
speed drifts: the same job, run back to back, can take up to twice as long
for seconds or minutes at a time, while CPU time tracks wall time exactly.
No statistic over one run removes a drift that lasts the whole run.  So
while timed code runs, a timer signal (``SIGALRM``; no thread is started)
interrupts it every ``INTERVAL`` seconds of wall time and runs a short fixed
reference loop, ``reference_work``, twice, timing the second run.  The
loop's duration, sampled evenly in time, tracks how fast the host is at
that moment.

A span's *nominal time* is its wall time, less the probes that ran inside
it, times ``NOMINAL_S`` over the mean probe duration in a window around the
span: the time the span would take on a host where the probe takes
``NOMINAL_S``.  ``NOMINAL_S`` is a fixed constant, so nominal times of two
commits compare directly.
"""

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

INTERVAL = 0.025   # seconds of wall time between probes
WINDOW = 0.25      # probes this far either side of a span also count
NOMINAL_S = 0.0005  # probe duration that defines nominal host speed

_ARRAY = np.arange(4096, dtype=np.int64)
_INDEX = (_ARRAY * 1597) % 4096


def reference_work():
    """A fixed mix of interpreted Python and small numpy gathers, like the
    program's own mix."""
    table = {}
    acc = 0
    for i in range(1000):
        table[i & 127] = acc
        acc = (acc * 31 + i) % 65521
    dist = _ARRAY.copy()
    for _ in range(20):
        np.minimum(dist, dist[_INDEX] + 1, out=dist)
    return acc + int(dist[0])


class HostSpeed:
    """Collects probe samples while active (a context manager)."""

    def __init__(self):
        self.starts = []      # probe start times, ascending
        self.durations = []   # probe durations, same order
        self.busy = 0.0       # total probe time so far

    def _probe(self, signum, frame):
        # The first call refills the caches the program has just used; only
        # the second, warm call is timed, so the probe tracks the host, not
        # the program's cache footprint.  Warm probes also tracked the
        # host's drift better than cold ones or ones reading a large table.
        start = perf_counter()
        reference_work()
        warm = perf_counter()
        reference_work()
        end = perf_counter()
        self.starts.append(warm)
        self.durations.append(end - warm)
        self.busy += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def nominal(self, seconds, start, end):
        """`seconds` of work done between wall times start and end, scaled
        to nominal host speed."""
        lo = bisect_left(self.starts, start - WINDOW)
        hi = bisect_right(self.starts, end + WINDOW)
        if lo == hi:
            raise RuntimeError("no host-speed probe near a timed span")
        mean = sum(self.durations[lo:hi]) / (hi - lo)
        return seconds * NOMINAL_S / mean
