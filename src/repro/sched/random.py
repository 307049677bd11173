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

    def replay_misses(self, net, backoff, start, key, tel=None):
        """The base replay, flattened: a miss leaves no state but the
        LFSR, so each attempt is one draw and no ``note_steal`` (the
        base no-op).  The network's latencies for a tile-local and a
        remote victim are asked once, and its message counters are
        charged in bulk at the end.  With telemetry the base loop runs,
        since it emits per-attempt events."""
        if tel is not None:
            return PEScheduler.replay_misses(self, net, backoff, start, key,
                                             tel)
        draw = self.lfsr.pick_victim
        num_victims = self.num_victims
        pe_id = self.pe_id
        hops = self.hops
        request_local, response_local = net.steal_latencies(True)
        request_remote, response_remote = net.steal_latencies(False)
        f, s, p = start
        # The engine-key comparisons of the base loop, on the tick first
        # (ticks rarely tie, so the tuples are built only on a tie).
        key_tick, key_rest = key[0], key[1:]
        times = [f]
        attempts = local = 0
        while f < key_tick or f == key_tick and (s, p) < key_rest:
            victim = draw(num_victims, pe_id)
            attempts += 1
            if hops[victim]:
                request, response = request_remote, response_remote
            else:
                local += 1
                request, response = request_local, response_local
            probe = f + request
            times.append(probe)
            if probe > key_tick or probe == key_tick and (f, s) >= key_rest:
                resume = (probe, f, s, victim, 3 * attempts - 2)
                # This attempt's response belongs to the real probe.
                answered = attempts - 1
                answered_local = local - (hops[victim] == 0)
                break
            nack = probe + response
            f, s, p = nack + backoff, nack, probe
            times += (nack, f)
        else:
            resume = (f, s, p, None, 3 * attempts)
            answered, answered_local = attempts, local
        net.count_steal_messages(
            attempts, local + answered_local,
            attempts - local + answered - answered_local)
        return resume, attempts, times


class RandomPolicy(SchedulingPolicy):
    """Uniform random stealing via the per-PE LFSR (Section III-A)."""

    name = "random"

    def scheduler_for(self, pe) -> RandomScheduler:
        return RandomScheduler(self, pe)
