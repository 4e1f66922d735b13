"""Machine-speed normalisation for timings taken on a shared CPU.

On a shared host the same Python code runs up to 1.7 times slower for
seconds at a time while neighbours are busy, which is far more than the
changes the benchmark must resolve. SpeedProbe therefore times a fixed
kernel of Fraction arithmetic (the program's own staple) ten times a
second, from a SIGALRM handler on the main thread, and rescales every
measured interval to the speed at which the kernel takes NOMINAL_S:

    normalised = (raw - time spent sampling) * NOMINAL_S * mean(1 / kernel time)

over the kernel samples taken during the interval and the one just before
it, which `mark()` takes afresh when the last is over FRESH_S old.

Over a minute of repeats on a 2-core Xeon VM, normalising cut the range
of 10-second medians from 49% to 3% of their median for a measure query,
and from 23% to 7% for sublocale unions. Reported times are therefore
seconds at reference speed: they move with the program, not with the
neighbours. Sampling costs a few percent of the run.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
FRESH_S = 0.02
NOMINAL_S = 0.003  # about the kernel's median time on that VM, Python 3.11


def kernel():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        acc += Fraction(1, i) * Fraction(i, i + 1)
        seen[i % 7] = (acc.numerator % 97, i)
    return acc


class SpeedProbe:
    """Context manager; `mark()` and `span(a, b)` measure intervals."""

    def __init__(self):
        self.samples = []  # kernel durations, in order
        self.handler_s = 0.0  # total time spent taking samples
        self._previous = None
        self._last = 0.0
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # the timer fired inside a sample that mark() took
            return
        self._busy = True
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the kernel's cost
        try:
            k0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - k0)
        finally:
            if collecting:
                gc.enable()
            self._last = time.perf_counter()
            self.handler_s += self._last - t0
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        # A short interval would otherwise be scaled by a sample up to one
        # timer period old; take a fresh one if the last is stale.
        if time.perf_counter() - self._last > FRESH_S:
            self._sample()
        return (self.handler_s, len(self.samples), time.perf_counter())

    def span(self, start, end):
        """(raw seconds, normalised seconds) between two marks, both net
        of the time the handler took."""
        h0, n0, t0 = start
        h1, n1, t1 = end
        net = (t1 - t0) - (h1 - h0)
        window = self.samples[max(0, n0 - 1):max(n1, n0, 1)]
        slow = sum(1 / r for r in window) / len(window)
        return net, net * NOMINAL_S * slow
