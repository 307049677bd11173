"""The scheduling-policy interface: the two stealing decisions.

The paper's FlexArch hard-codes one policy — random victim selection via
a per-PE LFSR, stealing one task from the head of the victim's deque,
LIFO owner pops, spawns pushed to the spawning PE — and its evaluation
hinges on how well that policy load-balances dynamic task graphs.  This
package makes the stealing half of it swappable: a
:class:`SchedulingPolicy` owns the run-global decisions and hands each
PE a :class:`PEScheduler` carrying the per-PE decision state.

Two decisions vary between the built-in policies:

1. **Victim selection** — :meth:`PEScheduler.pick_victim` chooses which
   queue an idle PE probes next.
2. **Steal amount/side** — :meth:`SchedulingPolicy.steal_plan` decides,
   at the victim, how many tasks to take and from which end (head-one
   today; steal-half as a bulk option).

The rest of the protocol is fixed and lives with the component that
runs it: a PE pops the end its ``local_order`` names and pushes every
spawn into its own queue (``repro/arch/pe.py``), LiteArch places round
task ``i`` on PE ``i % num_pes`` (``repro/arch/lite.py``), and admission
control releases the earliest-arriving queued job
(``repro/arch/interface.py``).

Determinism contract
--------------------

Policies must be pure functions of their own state: a pick may depend
only on the PE's scheduling LFSR and on observations delivered through
:meth:`PEScheduler.note_steal`.  Two consumers rely on this:

* The parked-PE wakeup scheduler (``repro/arch/wakeup.py``) *replays*
  the picks a parked PE would have made while every queue was empty,
  through :meth:`PEScheduler.replay_misses`.  The base loop calls
  ``pick_victim`` then ``note_steal(victim, 0, 0)`` for each elided
  attempt, so the policy state after a park/wake cycle is
  bit-identical to the polling execution.  A policy whose state could
  be mutated by *other* components while its PE is parked would break
  that replay; hence occupancy hints ride only on this PE's own steal
  responses (see ``repro/sched/occupancy.py``).  A policy may override
  ``replay_misses`` only with a loop that leaves the same LFSR state,
  attempt count, network counters, resume point and event times;
  ``random``'s does, drawing straight from the LFSR because its
  ``note_steal`` is the base no-op (``tests/sched/test_replay.py``).
* The fault plan (``repro.resil``) draws from its own LFSR stream, and
  policies draw victims from the scheduling LFSR only — attaching a
  zero-rate plan under any policy is bit-identical to no plan
  (``tests/resil/test_null_invariant.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.lfsr import LFSR16, default_seed


class PEScheduler:
    """Per-PE scheduling state: one instance per processing element.

    Subclasses implement :meth:`pick_victim` and may override
    :meth:`note_steal`, the observation hook, to maintain policy state.
    The base class owns the PE's *scheduling* LFSR — the only randomness
    source a policy may draw from (never the fault-plan stream, which is
    a separate seeded LFSR, and never engine state).
    """

    __slots__ = ("policy", "accel", "pe_id", "tile_id", "lfsr",
                 "counts_steals", "num_victims", "hops")

    def __init__(self, policy: "SchedulingPolicy", pe) -> None:
        self.policy = policy
        self.accel = pe.accel
        self.pe_id = pe.pe_id
        self.tile_id = pe.tile_id
        self.lfsr = LFSR16(default_seed(pe.pe_id))
        # Steal statistics measure load balancing *between PEs*.  A
        # single-PE machine has no peers: its only victim is the IF
        # block, and those root-fetch handshakes are interface protocol,
        # not load balancing — they are timed but not counted (the
        # ``steal_attempts`` bookkeeping fix; see ``pe.py``).
        self.counts_steals = pe.accel.config.num_pes > 1
        #: This PE's distance in crossbar hops to each victim id — the
        #: one home of the hop rule: a victim on the thief's tile is 0
        #: hops away, any other (the IF block included) 1.  Empty on a
        #: PE that never steals (LiteArch has no victim tiles to map).
        self.hops: Sequence[int] = ()
        if pe.steal_enabled:
            tile = self.tile_id
            self.hops = [0 if t == tile else 1
                         for t in pe.accel.victim_tiles]
        #: Size of the victim space: every PE plus the IF block on a
        #: FlexArch, fixed for the accelerator's life (0 without stealing).
        self.num_victims = len(self.hops)

    # -- decision point 1: victim selection ----------------------------
    def pick_victim(self) -> int:
        """Victim id in ``[0, num_victims)`` excluding this PE."""
        raise NotImplementedError

    # -- observation hook ----------------------------------------------
    def note_steal(self, victim_id: int, count: int, depth_after: int
                   ) -> None:
        """A probe of ``victim_id`` returned: ``count`` tasks were taken
        (0 = miss) and ``depth_after`` tasks remained in its queue.  A
        request lost to an injected fault returns nothing, so nothing is
        observed."""

    # -- parked-PE steal replay ------------------------------------------
    def replay_misses(self, net, backoff: int, start: Tuple[int, int, int],
                      key: Tuple[int, int, int], tel=None
                      ) -> Tuple[tuple, int, List[int]]:
        """Replay the failed steals of this PE, parked at the loop-top
        event ``start`` = ``(time, s_at, p_s_at)``, up to the waking
        event ``key`` (``repro/arch/wakeup.py``).

        Every virtual loop-top strictly before ``key`` found the local
        queue empty and launched a steal destined to fail: its pick, the
        policy's miss observation (``note_steal(victim, 0, 0)``, an empty
        queue's response), the network's latencies and message counts
        and the telemetry ``tel`` records are charged here exactly as the
        polling loop would have.  ``backoff`` is ``steal_backoff_cycles``.

        Returns ``(resume, attempts, times)``.  ``resume`` is ``(time,
        s_at, p_s_at, value, elided)``: the PE re-enters real execution
        at a loop-top (value ``None``) or mid-attempt at the victim-probe
        tick (value = the victim already drawn), whichever comes first
        at-or-after ``key``, and ``elided`` counts the engine events the
        replay stood in for.  ``attempts`` counts the draws and ``times``
        lists the replayed events' times, oldest (``start``'s) first.

        This loop serves every policy.  A policy whose misses leave no
        state but the LFSR may override it with a flatter one that
        charges the same (``RandomScheduler``).
        """
        pick_victim = self.pick_victim
        note_steal = self.note_steal
        victim_tiles = self.accel.victim_tiles
        hops = self.hops
        request_latency = net.steal_request_latency
        response_latency = net.steal_response_latency
        thief_tile = self.tile_id
        pe_id = self.pe_id
        f, s, p = start
        times = [f]
        attempts = 0
        while (f, s, p) < key:
            victim = pick_victim()
            attempts += 1
            victim_tile = victim_tiles[victim]
            # Replayed attempts are emitted with their *virtual*
            # timestamps so the recorded steal timeline matches the
            # polling execution (exports sort by timestamp).
            if tel is not None:
                tel.steal_request(pe_id, victim, ts=f, hops=hops[victim])
            probe = f + request_latency(thief_tile, victim_tile)
            times.append(probe)
            if (probe, f, s) >= key:
                # The victim-side probe lands at-or-after the waking
                # event: run it for real — it may now see the new work.
                # Its steal-hit/miss event (and the policy's observation
                # of the real response) is emitted by the real probe.
                # Each earlier attempt elided its loop-top, probe and
                # NACK-then-backoff events; this one only its loop-top.
                return (probe, f, s, victim, 3 * attempts - 2), attempts, times
            note_steal(victim, 0, 0)
            if tel is not None:
                tel.steal_result(pe_id, victim, None, ts=probe,
                                 hops=hops[victim], count=0)
            nack = probe + response_latency(thief_tile, victim_tile)
            f, s, p = nack + backoff, nack, probe
            times += (nack, f)
        return (f, s, p, None, 3 * attempts), attempts, times


class SchedulingPolicy:
    """Run-global scheduling decisions; factory for per-PE schedulers."""

    #: Registry key (``AcceleratorConfig.steal_policy``).
    name = "abstract"

    def __init__(self, accel) -> None:
        self.accel = accel
        self.config = accel.config

    def scheduler_for(self, pe) -> PEScheduler:
        """Build the per-PE decision state for ``pe``."""
        raise NotImplementedError

    # -- decision point 2: steal amount / side --------------------------
    def steal_plan(self, victim_qlen: int) -> Tuple[int, str]:
        """``(count, end)`` to take from a PE victim's queue of length
        ``victim_qlen``.  The default is the paper's protocol: one task
        from the configured end (head unless the ``steal_end`` ablation
        flips it).  The IF block is not subject to the plan — root
        fetches always take one task from the head."""
        return 1, self.config.steal_end

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
