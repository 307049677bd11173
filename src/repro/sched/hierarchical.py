"""Hierarchical (locality-aware) victim selection.

Random stealing is oblivious to the tile topology: a thief on tile 0 is
as likely to probe tile 3 as its own neighbours, paying the crossbar hop
(``net_hop_cycles`` each way) for requests a tile-local probe
(``queue_op_cycles``) could have answered.  The hierarchical policy
exploits the existing ``victim_tile`` / hop-latency model: probe
tile-local victims first, and escalate to a remote probe only after a
full sweep's worth of consecutive local misses.

Escalation state is one per-PE counter, so the policy satisfies the
replay contract of ``repro/sched/base.py``: during an idle (parked)
interval every probe misses, the counter walks the same
local/local/.../remote cadence the polling loop would have, and the
wakeup replay reproduces it exactly.

The IF block (victim id ``num_pes``) sits off-tile and is classified
remote, so root tasks remain reachable: a freshly started machine sweeps
its empty local tier once and then probes remotely, finding the injected
root.  PEs with no tile-local peers (one PE per tile, e.g. the CPU
baseline) probe remotely every time.
"""

from __future__ import annotations

from typing import List

from repro.sched.base import PEScheduler, SchedulingPolicy


class HierarchicalScheduler(PEScheduler):
    """Local-first probing with miss-count escalation."""

    __slots__ = ("local", "remote", "_local_set", "local_misses")

    def __init__(self, policy: "HierarchicalPolicy", pe) -> None:
        super().__init__(policy, pe)
        # Every other victim, split by the hop table (which is empty on
        # a PE that never steals, and maps this PE itself to 0 hops).
        self.local: List[int] = [v for v, hops in enumerate(self.hops)
                                 if not hops and v != self.pe_id]
        self._local_set = frozenset(self.local)
        self.remote: List[int] = [v for v, hops in enumerate(self.hops)
                                  if hops]
        self.local_misses = 0

    def pick_victim(self) -> int:
        if self.local and self.local_misses < len(self.local):
            return self.local[self.lfsr.pick(len(self.local))]
        if len(self.remote) == 1:
            return self.remote[0]
        return self.remote[self.lfsr.pick(len(self.remote))]

    def note_steal(self, victim_id: int, count: int, depth_after: int
                   ) -> None:
        if count or victim_id not in self._local_set:
            # A hit ends the search; a remote miss ends the escalation
            # round and the thief returns to its local tier.
            self.local_misses = 0
        else:
            self.local_misses += 1


class HierarchicalPolicy(SchedulingPolicy):
    """Probe tile-local victims first, then remote tiles."""

    name = "hierarchical"

    def scheduler_for(self, pe) -> HierarchicalScheduler:
        return HierarchicalScheduler(self, pe)
