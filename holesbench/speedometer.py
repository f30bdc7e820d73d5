"""The speed of the machine while the benchmark runs.

On a shared host the same code runs up to twice as slow from one second to
the next, because other tenants contend for the caches and memory of the
same cores.  A background thread therefore runs a fixed reference kernel
every INTERVAL_S seconds and records how long each run of it took, in its
own thread CPU time.  An operation's time divided by the kernel's time around
it, times REFERENCE_KERNEL_S, is the operation's time at a fixed reference
speed: the kernel is slowed by what slows the library, and it shares no
code with the library, so a faster library still shows as a lower figure.

The kernel mixes the kinds of work the library does: exact rational
elimination, sets of integer tuples, and lookups scattered over a few
megabytes of Python objects.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# about the kernel's time beside the library on the reference machine, so
# that rescaled figures read roughly as seconds there (see README.md)
REFERENCE_KERNEL_S = 0.003
INTERVAL_S = 0.04

_CHAIN_LEN = 1 << 16
_CHAIN_STEPS = 6000
_MATRIX = [[7 if i == j else (3 * i + 5 * j) % 4 - 1 for j in range(6)] for i in range(6)]


def _chain() -> list[int]:
    order = list(range(_CHAIN_LEN))
    random.Random(7).shuffle(order)
    nxt = [0] * _CHAIN_LEN
    for a, b in zip(order, order[1:] + order[:1]):
        nxt[a] = b
    return nxt


def kernel(chain: list[int]) -> int:
    """A fixed amount of library-like work; returns a checksum."""
    a = [[Fraction(x) for x in row] for row in _MATRIX]
    for c in range(len(a)):
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    seen, stack = set(), [(0, 0, 0)]
    while stack:
        z = stack.pop()
        if z in seen or z[0] + z[1] + z[2] > 18:
            continue
        seen.add(z)
        stack += [(z[0] + 1, z[1], z[2]), (z[0], z[1] + 2, z[2]), (z[0], z[1], z[2] + 3)]
    x = 0
    for _ in range(_CHAIN_STEPS):
        x = chain[x]
    return len(seen) + x + a[-1][-1].denominator


class Speedometer:
    """Runs the kernel every INTERVAL_S seconds in a background thread."""

    def __init__(self):
        self.times: list[float] = []      # perf_counter at the end of each sample
        self.kernel_s: list[float] = []   # the sample's thread CPU time
        self._chain = _chain()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            start = time.thread_time()
            kernel(self._chain)
            took = time.thread_time() - start
            self.kernel_s.append(took)
            self.times.append(time.perf_counter())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def at_reference_speed(self, start: float, end: float, seconds: float) -> float:
        """`seconds` spent between the wall-clock times start and end,
        rescaled to the reference speed."""
        return seconds * REFERENCE_KERNEL_S / self.kernel_around(start, end)

    def kernel_around(self, start: float, end: float, min_samples: int = 25) -> float:
        """Mean kernel time over [start, end], without the highest and lowest
        tenth of the samples.  The span is widened evenly on both sides until
        it holds at least min_samples samples.

        The kernel's times gather around two levels, and which of them holds
        the middle sample flips with small changes in their mix; the mean
        follows the mix smoothly."""
        if len(self.times) < min_samples:
            raise RuntimeError("the speedometer took too few samples")
        pad = 0.0
        while True:
            lo = bisect_left(self.times, start - pad)
            hi = bisect_right(self.times, end + pad)
            if hi - lo >= min_samples:
                window = sorted(self.kernel_s[lo:hi])
                cut = len(window) // 10
                return statistics.fmean(window[cut:len(window) - cut])
            pad = max(2 * pad, INTERVAL_S)
