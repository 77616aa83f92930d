"""Host-speed correction: time a fixed probe kernel while the benchmark
measures, and rescale each measured interval to a reference speed.

On a shared host the CPU's speed swings by up to 1.7x, within seconds
and over minutes, and process CPU time swings with it.  A fixed piece of
Python code slows down with the solver, so its timing tells how fast the
host ran at that moment.  While a ``SpeedProbe`` runs, a SIGALRM timer
interrupts the main thread every ``PERIOD`` seconds, and the handler
times one run of ``kernel``: a few hundred neighbour-weight updates on a
small graph held by this module, the same kind of work as the solver's
gain updates.  The kernel reads and writes only its own data, so it does
not change what the solver does.

``seconds(a, b)`` turns the perf_counter interval [a, b] into reference
seconds: the interval's wall time, less the probe's own time inside it,
times the mean of ``(REF_S / t) ** SPEED_EXPONENT`` over the probe
samples t taken during it.  A sample measures the speed at one moment,
and the work done in a wall interval is proportional to that speed,
hence a mean over the samples of the inverse of their times.  Intervals
that hold fewer than ``MIN_SAMPLES`` samples take the nearest ones
around them.
"""

from __future__ import annotations

import random
import signal
import time
from bisect import bisect_left

perf_counter = time.perf_counter

PERIOD = 0.03  # seconds between probe samples
KERNEL_STEPS = 150  # transfers per sample, ~0.3 ms on the reference machine
# The kernel's typical time inside solves on the reference machine (a KVM
# guest, 2.0 GHz Xeon vCPU, Python 3.11), so reference seconds read about
# as wall seconds there.  Any fixed value would do: it only sets the scale.
REF_S = 0.3e-3
# When the host slows down, the solver slows down more steeply than the
# kernel: regressing log(solve time) on log(kernel time) over repeats of
# identical solves gave slopes of 1.16, 1.25 and 1.54 in three 8-minute
# runs on the reference machine.  Raising the kernel's speed to this power
# took the spread of 55-second medians from 0.041-0.090 to 0.028-0.073 in
# all three runs (interquartile range / median).
SPEED_EXPONENT = 1.3
MIN_SAMPLES = 4


def _graph(n: int = 512, degree: int = 8, k: int = 4):
    rng = random.Random("perfbench:hostspeed")
    adjacency = [[(rng.randrange(n), rng.choice((1, -1))) for _ in range(degree)]
                 for _ in range(n)]
    gains = [[0] * k for _ in range(n)]
    part = [rng.randrange(k) for _ in range(n)]
    return adjacency, gains, part


_ADJACENCY, _GAINS, _PART = _graph()


def kernel(steps: int = KERNEL_STEPS) -> None:
    """Move `steps` pseudo-random vertices to the next part and update
    their neighbours' gains; allocates no container, so never triggers gc."""
    adjacency, gains, part = _ADJACENCY, _GAINS, _PART
    n = len(adjacency)
    x = 1
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % n
        old = part[v]
        new = (old + 1) & 3
        for u, w in adjacency[v]:
            row = gains[u]
            row[old] = (row[old] - w) & 1023
            row[new] = (row[new] + w) & 1023
        part[v] = new


class SpeedProbe:
    """Samples the host's speed on a timer while it runs (a context manager)."""

    def __init__(self):
        self.at: list[float] = []  # start of each sample
        self.took: list[float] = []  # seconds of each sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the perf_counter interval [a, b]."""
        i, j = bisect_left(self.at, a), bisect_left(self.at, b)
        own = sum(self.took[i:j])  # a sample runs whole inside or outside
        lo, hi = i, j
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        if hi == lo:
            raise RuntimeError("no host-speed sample was taken")
        speed = sum((REF_S / t) ** SPEED_EXPONENT for t in self.took[lo:hi]) / (hi - lo)
        return (b - a - own) * speed

    def share(self) -> float:
        """The share of the probed time spent in the probe itself."""
        if len(self.at) < 2:
            return 0.0
        return sum(self.took) / (self.at[-1] - self.at[0] + self.took[-1])
