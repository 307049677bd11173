"""Random victim selection — the paper's policy, bit-exact.

This is a *reimplementation move*, not a redesign: the per-PE LFSR draw
(`LFSR16.pick_victim` over all PEs plus the IF block, excluding self),
the head-one steal plan, LIFO owner pops, and self-push spawns are the
exact protocol ``arch/pe.py`` hard-coded before the policy layer
existed.  ``steal_policy="random"`` must stay bit-identical to that
history — same cycle counts, same LFSR sequences, same steal event
stream — which ``tests/sched/test_golden_random.py`` pins against
recorded pre-refactor values.
"""

from __future__ import annotations

from repro.sched.base import PEScheduler, SchedulingPolicy


class RandomScheduler(PEScheduler):
    """One LFSR draw per attempt over the full victim space."""

    __slots__ = ()

    def pick_victim(self) -> int:
        return self.lfsr.pick_victim(self.num_victims, self.pe_id)


class RandomPolicy(SchedulingPolicy):
    """Uniform random stealing via the per-PE LFSR (Section III-A)."""

    name = "random"

    def scheduler_for(self, pe) -> RandomScheduler:
        return RandomScheduler(self, pe)
