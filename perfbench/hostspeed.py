"""Host-speed calibration: a fixed pure-Python loop timed alongside the ops.

The benchmark shares a few cores of a host whose CPU speed switches by up
to 2x every few seconds (process time equals wall time, so it is not
scheduling).  A pure-Python loop slows down just as the package does, so
every run times this loop often, on the same vCPU as the ops, and
reduce.normalize scales each op to a host on which one loop takes
NOMINAL_S.

The loop is a fixed part of the benchmark, not of the package: a change
to the package moves op times but never the loop's time.  It does what the
package's hot paths do in pure Python: SplitMix64 integer mixing, float
conversion, math.exp and list indexing.
"""

from __future__ import annotations

import json
import math
import signal
import time
from contextlib import contextmanager

#: One calibration sample takes this long on the reference host (two
#: vCPUs of a 2.0 GHz Xeon, in a fast stretch); normalized times are
#: seconds on a host of that speed.
NOMINAL_S = 0.005

#: Iterations of one sample; tuned so that a sample takes about NOMINAL_S.
STEPS = 7_500

#: While ops run in this process, a sample is taken every PERIOD_S.
PERIOD_S = 0.05

#: Otherwise a block of samples follows each interval, and lasts at least
#: this share of it.
SHARE = 0.15

#: Samples taken when the clock is made (also the warm-up).
FIRST_BLOCK = 20

_MASK64 = (1 << 64) - 1


def loop(steps: int = STEPS) -> float:
    state = 0x2545F4914F6CDD1D
    table = [0.0] * 64
    acc = 0.0
    for i in range(steps):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        u = ((z ^ (z >> 31)) >> 11) * 2.0**-53
        k = i & 63
        table[k] = 0.5 * table[k] + math.exp(-u)
        acc += table[k]
    return acc


class HostClock:
    """Calibration samples (start time, duration) and a clock that stops while one runs.

    Samples are taken by a SIGALRM timer in the middle of the work that runs
    in this process (``ticking``), or in blocks between timed intervals
    (``block``); a CLI child ticks on its own clock and hands its samples
    over (``absorb``).  ``now`` does not advance while a sample runs, so an
    op timed with it excludes the samples taken inside it.
    """

    def __init__(self, first_block: int = FIRST_BLOCK) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0
        self._busy = False
        for _ in range(first_block):
            self._sample()

    def _sample(self, *_signal) -> None:
        if self._busy:  # a timer tick that arrives during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        loop()
        elapsed = time.perf_counter() - start
        self.starts.append(start)
        self.seconds.append(elapsed)
        self.spent += elapsed
        self._busy = False

    def now(self) -> float:
        """perf_counter seconds, less the time spent sampling."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:  # no sample ran between the two reads
                return t - spent

    def absorb(self, samples: dict[str, list[float]]) -> None:
        """Add the samples a child took (see ``dump``) while this process waited for it.

        perf_counter is the system-wide monotonic clock on Linux, so the
        child's start times are on this clock; they follow every sample
        taken here, which keeps ``starts`` in time order.
        """
        self.starts += samples["starts"]
        self.seconds += samples["seconds"]
        self.spent += sum(samples["seconds"])

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"starts": self.starts, "seconds": self.seconds}, f)

    def block(self, after: float) -> None:
        """Samples lasting at least SHARE of ``after`` seconds, and at least one."""
        stop = self.spent + SHARE * after
        self._sample()
        while self.spent < stop:
            self._sample()

    @contextmanager
    def ticking(self):
        """Take a sample every PERIOD_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
