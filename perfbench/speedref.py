"""Host-speed reference: a fixed pure-Python kernel timed in every pass.

The kernel imports nothing from the program, so no change to the
program can move it; only the host can.  It mixes what the simulator's
hot loop does: small slotted objects, dict stores, a binary heap and a
generator driven with ``send``.  On a shared box whose speed drifts,
its median time over a run measures how fast the host ran during that
run (see ``perfbench/README.md``, "Host-speed scaling").
"""

from __future__ import annotations

import heapq
import time
from typing import List

#: Fixed seconds per :func:`kernel` call that scaled metrics assume.
#: The reference box takes 0.035-0.07 s depending on its neighbours;
#: changing this constant rescales every scaled metric.
NOMINAL_S = 0.05

#: Kernel calls at each sample point (the end of every pass and every
#: set-up probe).
SAMPLES = 3


class _Event:
    __slots__ = ("time", "value")

    def __init__(self, time: int, value: int) -> None:
        self.time = time
        self.value = value


def _consumer():
    total = 0
    while True:
        event = yield total
        total += event.value


def kernel(n: int = 40000) -> int:
    """Fixed work; returns a checksum so nothing is optimised away."""
    heap: list = []
    table: dict = {}
    consumer = _consumer()
    next(consumer)
    total = 0
    for i in range(n):
        event = _Event(i * 7 % 1009, i)
        table[i % 4093] = event
        heapq.heappush(heap, (event.time, i, event))
        if len(heap) > 64:
            total = consumer.send(heapq.heappop(heap)[2])
    return total + len(table)


def sample(count: int = SAMPLES) -> List[float]:
    """Seconds per :func:`kernel` call, ``count`` times."""
    out = []
    for _ in range(count):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out
