"""Times scaled to a fixed machine speed.

The reference machine (a 2-core x86-64 VM on a shared host) changes speed
by up to 1.4x, in spells of a few seconds to minutes: the median time of a
fixed pure-Python loop over 20-second windows spread by 16% of its median
(quartile distance) over seven minutes, and the process's CPU time moved
with its wall time, so the slow spells are not time stolen from the process
but slower execution.  A run of a few tens of seconds cannot average that
out, so two runs of the same code would differ by more than any useful
bound.

So every timed interval is bracketed by a reference loop of fixed work
that does not call pushkit, and its time is scaled by REFERENCE_S over the
loop's time measured around it: a time reads as seconds on the reference
machine at a fixed speed.  A change to pushkit moves the scaled time as
much as the raw time; a change of machine speed moves the loop about as
much as pushkit, and so mostly cancels.  The loop runs only between
intervals, so an interval of several seconds still varies with the speed
changes inside it.  The raw times are kept and reported next to the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

# Nominal seconds of one reference sample: about its median on the
# reference machine with CPython 3.11.
REFERENCE_S = 0.005
# Reference samples on each side of an interval whose median sets its speed.
WINDOW = 4


def _loop() -> list:
    # Tuple keys, dict updates and a sort, like pushkit's polynomial
    # arithmetic: on the reference machine its time followed that of
    # pushkit's operations more closely over slow and fast spells than a
    # loop of integer arithmetic did.
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(6_000):
        key = (i % 97, i % 89, i % 83)
        counts[key] = counts.get(key, 0) + i
    return sorted(counts.items())


def reference_sample() -> float:
    """Seconds of the reference loop: the best of three, so a single
    interruption does not count as a slow spell."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Raw seconds of a sequence of intervals, with a reference sample taken
    before the first interval and after each one."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.refs = [reference_sample()]

    def add(self, seconds: float) -> None:
        """Record an interval that has just ended."""
        self.raw.append(seconds)
        self.refs.append(reference_sample())

    def scaled(self) -> list[float]:
        """Each interval scaled by REFERENCE_S over the median of the WINDOW
        reference samples before it and the WINDOW after it."""
        refs = self.refs
        return [
            dt * REFERENCE_S / statistics.median(refs[max(0, k + 1 - WINDOW):k + 1 + WINDOW])
            for k, dt in enumerate(self.raw)
        ]
