"""Timings divided by the machine's speed at the time they were taken.

A shared host's speed drifts by tens of percent over seconds to minutes:
other tenants slow every process alike, and a run of 30 s cannot wait that
out.  :class:`Timeline` therefore runs a fixed pure-Python kernel between
ops, about every ``every_s`` seconds of op time, and divides each timing
by the kernel's time around it.  The kernel imports nothing from
``enriques``, so a change to the package moves the op times but never the
kernel's; only the machine's speed cancels.

Normalised times are given in reference seconds: the time the work would
take on a machine where one kernel call takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left
from time import perf_counter

# one kernel call on the reference machine; about what it takes on an
# otherwise idle 2-vCPU Xeon VM under Python 3.11
REFERENCE_S = 0.004
# kernel calls on each side of a timing that give its local speed
NEIGHBOURS = 2


class _Node:
    __slots__ = ("key", "weight", "children")

    def __init__(self, key: tuple[int, int], weight: int) -> None:
        self.key = key
        self.weight = weight
        self.children: list[_Node] = []

    def total(self) -> int:
        return self.weight + sum(child.total() for child in self.children)


def kernel(rounds: int = 24) -> int:
    """Fixed work in the package's idiom: small tuples as dict keys,
    frozensets, sorting, attribute access and recursion."""
    checksum = 0
    for r in range(rounds):
        counts: dict[tuple[int, int, int], int] = {}
        for i in range(200):
            key = (i % 17, i // 17, r)
            counts[key] = counts.get(key, 0) + i
        odd = frozenset(key for key in counts if key[0] & 1)
        ranked = sorted(counts.items(), key=lambda item: (item[1], item[0]))
        nodes = [_Node((i, r), i % 7) for i in range(60)]
        for i in range(1, 60):
            nodes[(i - 1) // 3].children.append(nodes[i])
        checksum += nodes[0].total() + len(odd) + ranked[0][1]
        checksum += sum(x * 3 % 7 for x in range(300))
    return checksum


_CHECKSUM = kernel()


class Timeline:
    """Kernel timings taken between ops, and the local speed they give."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._since = 0.0

    def calibrate(self) -> None:
        """Time one kernel call, with the collector off so that garbage the
        ops left behind is not charged to the kernel."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            checksum = kernel()
            seconds = perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        if checksum != _CHECKSUM:
            raise RuntimeError("calibration kernel returned a different checksum")
        self.times.append(started)
        self.seconds.append(seconds)
        self._since = 0.0

    def tick(self, seconds: float) -> None:
        """Count ``seconds`` of op time; calibrate once ``every_s`` have gone."""
        self._since += seconds
        if self._since >= self.every_s:
            self.calibrate()

    def kernel_seconds_at(self, t: float) -> float:
        """Median kernel time of the calls nearest before and after ``t``."""
        i = bisect_left(self.times, t)
        low = max(0, i - NEIGHBOURS)
        high = min(len(self.seconds), i + NEIGHBOURS)
        return statistics.median(self.seconds[low:high])

    def normalise(self, started: float, seconds: float) -> float:
        """``seconds`` of wall time that began at ``started``, in reference seconds."""
        return seconds * REFERENCE_S / self.kernel_seconds_at(started)
