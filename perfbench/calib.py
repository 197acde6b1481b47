"""Machine-speed calibration for the benchmark's timings.

On a small shared VM the speed of one pure-Python loop drifts by a quarter
or more for tens of seconds at a time, as neighbours load the host.  So a
benchmark run keeps timing a fixed chunk of benchmark-owned Python
(``chunk``) while it runs, and reports every time scaled to the speed at
which that chunk takes ``REF_CHUNK_S``:

    reported = measured * REF_CHUNK_S / median chunk time of the run

The chunk never calls provmod, so a change to the program moves the
reported times and a change in the machine's speed mostly does not.  The
chunk builds tuples, interns small objects in a dict, and makes frozensets,
sorted lists and dict comprehensions, the operations the deciders and
evaluators spend their time on.
"""

from __future__ import annotations

import gc
import statistics
import time

# The chunk's time on the 2-vCPU Intel Xeon VM the benchmark was defined on,
# in its usual state; reported times are in seconds of that machine.
REF_CHUNK_S = 0.003
EVERY_S = 0.2          # a run times one chunk this often


class _Node:
    __slots__ = ("kind", "left", "right", "hash")

    def __init__(self, kind, left, right):
        self.kind, self.left, self.right = kind, left, right
        self.hash = hash((kind, left, right))


def chunk(n=1500):
    """One fixed piece of pure-Python work; returns its time in seconds."""
    t0 = time.perf_counter()
    table: dict = {}
    leaves = [("v", i) for i in range(16)]
    for i in range(n):
        key = (i % 7, leaves[i % 16], leaves[(i * 5) % 16])
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(*key)
        members = {node.hash % 31, i % 13, (i * 3) % 17}
        frozen = frozenset(members)
        ranked = sorted(members)
        table[(i, frozen)] = {x: x + 1 for x in ranked}
    return time.perf_counter() - t0


def sample():
    """One chunk's time, with the cyclic collector off so that a collection
    of the caller's heap is not timed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return chunk()
    finally:
        if enabled:
            gc.enable()


class Speed:
    """The machine's speed over one run.  Single chunks differ by 10% or
    more from one tenth of a second to the next, so a run samples the chunk
    every ``EVERY_S`` and scales all its times by one factor, from the
    median sample."""

    def __init__(self):
        self.samples = [sample()]
        self.last = time.perf_counter()

    def tick(self):
        """Sample if ``EVERY_S`` has passed since the last sample."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.add()

    def add(self):
        self.samples.append(sample())
        self.last = time.perf_counter()

    def factor(self):
        """Reference seconds per measured second."""
        return REF_CHUNK_S / statistics.median(self.samples)
