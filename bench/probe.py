"""Machine-speed probe for normalising timings on a shared host.

On a host shared with other tenants the same pure-Python work can take
50% longer for seconds or minutes at a time (a busy sibling hyperthread,
frequency changes), which would swamp the differences the benchmark
exists to show.  The probe runs a fixed pure-Python kernel from a
SIGALRM handler every INTERVAL seconds of wall time, interleaved with the
workload in the same process, and records when each run happened and how
long it took.  Between two ticks the process is taken to have run at
speed NOMINAL / (local kernel time); `normalizer()` integrates that
speed, turning a clock reading into nominal-speed seconds.  A reported
duration is therefore the time the work would take at the nominal
speed, measured locally, so a slow minute on the host does not move it.

`clock()` is perf_counter minus the time spent inside the probe, so the
probe's own cost (about 1% of the wall time) never enters a timing.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_right
from time import perf_counter
from typing import Callable

INTERVAL = 0.02
# Median kernel time on an otherwise idle 2-core x86-64 machine running
# CPython 3.11.  It only sets the scale of normalised timings.
NOMINAL = 0.00013

_P = tuple((7 * i + 3) % 29 for i in range(29))


def kernel() -> int:
    """Fixed work in the library's style: tuple indexing, list and dict
    building, bytes conversion."""
    acc = 0
    for _ in range(40):
        q = [_P[_P[i]] for i in range(29)]
        pos = {x: i for i, x in enumerate(q)}
        acc += pos[5] + len(bytes(q))
    return acc


class SpeedProbe:
    """Samples kernel time while started; one per process."""

    def __init__(self) -> None:
        self.ticks: list[float] = []    # clock() reading at each tick
        self.kernel_s: list[float] = []
        self.total = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        self.ticks.append(start - self.total)
        self.kernel_s.append(took)
        self.total += took

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter without the time spent in the probe."""
        while True:
            spent = self.total
            now = perf_counter()
            if self.total == spent:  # no tick between the two reads
                return now - spent

    def normalizer(self) -> Callable[[float], float]:
        """Map clock() readings to nominal-speed time (only differences
        are meaningful).  Readings before the first tick or after the
        last one extrapolate with the nearest measured speed."""
        ticks = self.ticks
        if not ticks:
            return lambda t: t
        k = self.kernel_s
        # the median of three neighbours ignores a kernel run that was
        # itself interrupted
        speed = [NOMINAL / statistics.median(k[max(0, i - 1):i + 2])
                 for i in range(len(k))]
        at_tick = [0.0]
        for i in range(1, len(ticks)):
            at_tick.append(at_tick[-1] + (ticks[i] - ticks[i - 1]) * speed[i])

        def normalized(t: float) -> float:
            i = bisect_right(ticks, t)
            if i == 0:
                return (t - ticks[0]) * speed[0]
            return at_tick[i - 1] + (t - ticks[i - 1]) * speed[min(i, len(ticks) - 1)]

        return normalized
