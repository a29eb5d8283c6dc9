"""A fixed reference loop that rescales timings to one machine speed.

The box the benchmark was built on (2 shared cores, Python 3.11.7) runs
1.2-2x slower for seconds or minutes at a time, so raw timings of the same
code spread by 10-25% from run to run.  The benchmark therefore times this
loop next to the operations and reports every time scaled by
``NOMINAL_SECONDS / loop time``: seconds at the speed the box has when it is
idle.  The loop does integer arithmetic only, allocates nothing the garbage
collector tracks and calls nothing of the package, so no change to the
package can move it.
"""

from __future__ import annotations

import collections
import statistics
import time

NOMINAL_SECONDS = 0.0009  # the loop's time on the idle box


def loop_seconds() -> float:
    began = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i % 7
    return time.perf_counter() - began


class Speed:
    """The current scale factor, from the median of the last five loop
    timings, taken at most every ``every`` seconds."""

    def __init__(self, every: float = 0.05):
        self.every = every
        self.recent: collections.deque[float] = collections.deque(maxlen=5)
        self.last = float("-inf")
        self.scale = 1.0

    def update(self) -> float:
        now = time.perf_counter()
        if now - self.last >= self.every:
            self.recent.append(loop_seconds())
            self.last = now
            self.scale = NOMINAL_SECONDS / statistics.median(self.recent)
        return self.scale
