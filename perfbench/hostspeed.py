"""Scaling measured times to the host's usual speed.

Shared cloud hosts run the same code 20-30% faster or slower for stretches
of several seconds. A fixed pure-Python loop slows down and speeds up with
them, so the benchmark times that loop while it measures and reports each
query's time as it would be at the loop's usual duration, ``USUAL_S``:
``Sampler`` times the loop every ``INTERVAL_S`` from a ``SIGALRM`` handler
in the measured process, and ``loop_time`` times it on demand. Only the
standard library is imported, so that a fresh interpreter can use this
before it imports exactml.
"""

import bisect
import signal
import time

# Duration of `_loop` on an x86-64 host with CPython 3.11 at its usual
# (slower) speed; it only fixes the scale of the reported seconds.
USUAL_S = 0.00021
INTERVAL_S = 0.02
# Ticks this far around a query also count towards its speed: the host's
# speed changes over seconds, and a short query holds few ticks of its own.
WINDOW_S = 0.5


def _loop() -> None:
    acc, table = 0, {}
    for i in range(1000):
        table[i & 255] = acc
        acc = (acc * 31 + i) % 1000003


def loop_time() -> float:
    """Best of five timings of the loop."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


class Sampler:
    """Times the loop every INTERVAL_S of wall time while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Time from start to end, less the ticks inside it, at the usual speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        ticks = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        near_lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        near_hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        near = [self.ends[i] - self.starts[i] for i in range(near_lo, near_hi)]
        speed = sorted(near)[len(near) // 2] if near else loop_time()
        return (end - start - ticks) * USUAL_S / speed
