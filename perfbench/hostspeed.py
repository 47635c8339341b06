"""Host-speed calibration for the untraced benchmark run.

The benchmark runs on a few vCPUs of a shared machine whose speed swings
by a third or more, in phases that last from seconds to minutes.  Times
are therefore reported at a reference host speed: each op's latency, and
each set-up timing, is multiplied by

    sum of REF_S over the kernels / mean time of the kernels while it ran,

where a kernel is a fixed piece of pure Python that uses none of the
library.  Interpreter-bound code slows more in a slow phase than
long-integer arithmetic does, so each workload names the kernels that
resemble its own work (`KERNEL` in run.py).

`Sampler` times the kernels at even intervals of the process CPU time
spent inside ops, from a SIGPROF handler, so that long ops are sampled
all along and short ones together; the handler's time is left out of the
op's latency.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

_BIG = 3 ** 2000
_MOD = 7 ** 1900 + 1


def interp():
    """String formatting and dict updates: interpreter-bound work, as in
    the CLI paths, dataset lookups and point-counting loops."""
    seen = {}
    for i in range(3000):
        k = f"{i % 97}:{i % 13}"
        seen[k] = seen.get(k, 0) + i
    return len(seen)


def bigint():
    """Squarings of a 1600-digit integer modulo 7^1900 + 1: long-integer
    arithmetic, as in the Fraction resultants and eliminations."""
    x = _BIG
    for i in range(60):
        x = (x * x + i) % _MOD
    return x


KERNELS = {"interp": interp, "bigint": bigint}
#: seconds per kernel run on a 2-vCPU Intel Xeon (CPython 3.11.7) in a fast phase
REF_S = {"interp": 0.0014, "bigint": 0.0040}
#: process CPU time between kernel samples inside ops
TICK_S = 0.05
#: fewest samples that judge the host speed over one timing
NEAREST = 12


class Sampler:
    """Times `kernels` every TICK_S of CPU time between `resume()` and
    `pause()`; `spent` is the wall time taken by the samples so far."""

    def __init__(self, kernels):
        self.kernels = tuple(kernels)
        self.ref = sum(REF_S[k] for k in self.kernels)
        self.times, self.samples = [], []
        self.spent = 0.0
        self._left = TICK_S
        signal.signal(signal.SIGPROF, self._on_tick)

    def _on_tick(self, signum, frame):
        self.sample()

    def sample(self):
        t0 = perf_counter()
        try:
            for k in self.kernels:
                KERNELS[k]()
        finally:  # an op's time limit may strike inside a kernel
            t1 = perf_counter()
            self.spent += t1 - t0
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def resume(self):
        signal.setitimer(signal.ITIMER_PROF, self._left, TICK_S)

    def pause(self):
        self._left = signal.setitimer(signal.ITIMER_PROF, 0)[0] or TICK_S

    def scale_over(self, t0, t1):
        """Reference speed over the host speed between perf_counter times
        `t0` and `t1`, judged by the samples taken then, widened to the
        NEAREST nearest ones: the factor for a time measured then."""
        lo, hi = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.times)):
            if hi == len(self.times) or (lo > 0 and t0 - self.times[lo - 1] <= self.times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return self.ref / statistics.fmean(self.samples[lo:hi])
