"""Occupancy-guided victim selection via steal-response hints.

Every steal response already crosses the work-stealing network; the
occupancy policy piggybacks one extra field on it — the victim's queue
depth *after* the probe — at zero protocol cost (the response message
exists either way, hit or NACK).  Each PE accumulates these hints in a
private table and aims its next probe at the deepest queue it knows
about, falling back to the random LFSR draw when every known queue is
empty or unobserved.

Hint discipline (the replay contract of ``repro/sched/base.py``): a PE's
table is updated **only by its own steal responses**.  Piggybacking on
messages a PE merely *receives* (a thief's request observed at the
victim, an argument delivery) would mutate the state of a PE that may be
parked, and the wakeup replay — which reconstructs a parked PE's elided
picks from its own state alone — could no longer reproduce the polling
execution.  During an idle interval every probe misses and writes a zero
hint, so the table decays deterministically and the policy converges to
the random fallback cadence, exactly reproducible on wakeup.

Tie-breaking is total and deterministic: deepest known queue first, then
fewest hops (tile-local preferred), then lowest victim id.
"""

from __future__ import annotations

from typing import Dict

from repro.sched.base import PEScheduler, SchedulingPolicy


class OccupancyScheduler(PEScheduler):
    """Probe the deepest known queue; decay hints on misses."""

    __slots__ = ("hints",)

    def __init__(self, policy: "OccupancyPolicy", pe) -> None:
        super().__init__(policy, pe)
        self.hints: Dict[int, int] = {}

    def pick_victim(self) -> int:
        best = -1
        best_key = None
        hops = self.hops
        for victim, depth in self.hints.items():
            if depth <= 0:
                continue
            key = (depth, -hops[victim], -victim)
            if best_key is None or key > best_key:
                best, best_key = victim, key
        if best >= 0:
            return best
        return self.lfsr.pick_victim(self.num_victims, self.pe_id)

    def note_steal(self, victim_id: int, count: int, depth_after: int
                   ) -> None:
        self.hints[victim_id] = depth_after


class OccupancyPolicy(SchedulingPolicy):
    """Steal from the deepest queue known from response-borne hints."""

    name = "occupancy"

    def scheduler_for(self, pe) -> OccupancyScheduler:
        return OccupancyScheduler(self, pe)
