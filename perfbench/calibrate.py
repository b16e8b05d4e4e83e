"""Host-speed calibration: timings are reported at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed shifts (by up
to 1.6x for a second or more at a time, and over minutes, on the 2-vCPU
virtual machine it was tuned on) as other tenants contend for the same cores
and caches. CPU time shifts with wall time, so no number of samples inside
one run removes it. Each timed span is therefore followed by
calls of a fixed interpreter-bound kernel (a heap Dijkstra over a fixed
graph: list indexing, tuple unpacking, dict and heap work; no fogcast
code), worth about ``SHARE`` of the span. The host's slowness then is the
median kernel-call time over ``REF_S``, and ``Clock`` divides a span's time
by the slowness measured right before and right after it, averaged with the
seconds each measurement took as weights: that is the span's time at
reference speed, where a kernel call takes ``REF_S`` seconds. A change to
fogcast moves the scaled time exactly as it moves the measured one; a
change of host speed moves both the span and the kernel, and cancels. The
weights let the long measurement after a long span (the ten seconds of
``all_pairs`` on the 2,000-node backbone) outweigh a short one before it.
Work unlike the kernel's, such as the file reads and unmarshalling of an
import, follows the host's shifts less closely, so set-up timings stay
noisier than trial timings.

The raw timings and every slowness factor stay in each run's ``result.json``.
"""
from __future__ import annotations

import gc
import statistics
import time
from heapq import heappop, heappush

REF_S = 0.0025    # seconds of one kernel call at reference speed
SHARE = 0.1       # kernel time spent after a span, as a share of the span
MIN_CALLS = 3     # kernel calls after even the shortest span
_NODES = 1100
_CHECKSUM = 17951  # the kernel's result; anything else means it ran wrong


def _graph(n: int) -> list[list[tuple[int, int]]]:
    """Adjacency lists of a fixed pseudo-random graph, weights 1-9."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    x = 12345
    for u in range(n):
        for _ in range(3):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            v, w = x % n, 1 + (x >> 16) % 9
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
    return adjacency


_ADJACENCY = _graph(_NODES)


def _kernel() -> int:
    """Sum of shortest-path distances from node 0."""
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJACENCY[u]:
            nd = d + w
            if nd < dist.get(v, nd + 1):
                dist[v] = nd
                heappush(heap, (nd, v))
    return sum(dist.values())


def slowness(span_s: float = 0.0) -> tuple[float, float]:
    """Measure the host's slowness right after a span of ``span_s`` seconds.

    Returns (median kernel-call time / ``REF_S``, seconds spent measuring).
    The garbage collector is off during kernel calls, so that a collection
    of fogcast's objects is never charged to the kernel.
    """
    calls = max(MIN_CALLS, round(SHARE * span_s / REF_S))
    times = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    try:
        for _ in range(calls):
            start = time.perf_counter()
            result = _kernel()
            times.append(time.perf_counter() - start)
            if result != _CHECKSUM:
                raise RuntimeError(f"calibration kernel returned {result}, not {_CHECKSUM}")
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(times) / REF_S, time.perf_counter() - started


class Clock:
    """Gives timed spans in seconds at reference speed. Each slowness
    measurement serves as the "after" of one span and the "before" of the
    next, so call ``scale`` right after every timed span."""

    def __init__(self):
        self.slow, self.spent = slowness()

    def scale(self, raw_s: float) -> float:
        """Seconds at reference speed of a span of ``raw_s`` seconds that
        has just ended; ``spent`` then holds the seconds this call took."""
        before, before_spent = self.slow, self.spent
        self.slow, self.spent = slowness(raw_s)
        mean = (before * before_spent + self.slow * self.spent) / (before_spent + self.spent)
        return raw_s / mean
