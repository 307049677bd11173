"""Parked-PE wakeup scheduling: event-driven idle handling.

The naive PE main loop makes every idle PE an event *generator*: a PE with
an empty queue burns one engine event per ``idle_poll_cycles``, and every
failed steal burns three more (attempt start, victim probe, NACK) per
``request + response + steal_backoff_cycles``.  Serial phases of fib, uts
or quicksort then spend most of their wall-clock simulating nothing
happening, and the cost of a run grows O(PEs x cycles) instead of
O(useful events).

This module removes those events without changing a single simulated
cycle.  When a PE finds its queue empty and nothing visible to steal, it
*parks*: the registry records the tick of the loop-top it stopped at (the
"anchor") and the PE holds no engine event at all.  Any action that makes
work visible — an IF-block inject, a spawn, a readied-task return — flips
some watched deque from empty to non-empty and wakes every parked PE.

Determinism argument
--------------------

While a steal-capable PE is parked, every queue it could probe is empty
(that is the park precondition, and any push wakes it), so each poll it
*would* have run is a guaranteed-failed steal whose timing and victim
pick are pure arithmetic.  On wakeup the registry replays that virtual
timeline from the anchor — drawing the same victims from the PE's
scheduler (``pe.sched.replay_misses``, including each miss observation
the policy would have made; see the determinism contract in
``repro/sched/base.py``), charging the same ``steal_attempts`` and network counters, walking the
same request/response/backoff cadence — up to the waking event, then
re-enters real execution at the first virtual event that would have run
at-or-after it.  The resume is inserted with its *virtual* scheduling
ancestry (:meth:`Engine.resume_at`), so even same-tick races between a
woken PE's probe and the push that woke it resolve exactly as they would
have in the polling simulator.  Simulated cycles, steal statistics and
LFSR sequences are bit-exact; only the empty engine events disappear
(counted by the ``events_elided`` statistic).

Non-stealing PEs (LiteArch) park on their own queue only; their virtual
timeline is a bare ``idle_poll_cycles`` cadence with no observable side
effects, so the replay is a closed-form fast-forward.

Ordering tied resumes
---------------------

Idle chains of different PEs can collide on *identical* ancestry triples
— every long-idle LiteArch PE polls with ``(f, f-idle, f-2*idle)``, and
stealing cadences can align by chance — and then the polling heap falls
back to sequence numbers.  For two tied poll events those resolve
recursively: each was scheduled by its chain's previous event, so the tie
unwinds into comparing the chains' earlier event *times*, level by
level, until they differ (the events' composite keys overlap, so this is
exactly what the heap's ``(time, s_at, p_s_at, seq)`` key computes).

The registry reproduces that rule directly: every wakeup plan exposes its
virtual event history *backwards* from the resume — through the replayed
cadence, the park anchor, and the park event's own scheduling ancestry —
and tied resumes are issued in positional-comparison order of those
histories.  Chains whose histories tie all the way down were in lockstep
since they parked; for those, park order equals the seed's scheduling
order and is used as the final tiebreak.  Resumes therefore receive
sequence numbers in the same relative order the polling heap would have
held, and downstream same-tick races (e.g. concurrently executing PEs
contending for memory bandwidth) replay identically.

A non-stealing PE's history is a uniform cadence, so its plan also
carries it as data, ``(head, idle, steps)``.  Two cadences with the same
head and period agree at every position down to the shorter one's
anchor, so the comparison skips that shared prefix in closed form and
walks only the few positions after it.  It answers exactly what the
full walk would, pair by pair — the sort needs that, because the
comparison is not transitive across chains tied over a shared prefix.
Replayed stealing chains keep their explicit event lists and the
positional walk.
"""

from __future__ import annotations

from functools import cached_property, cmp_to_key
from typing import Callable, List, Optional, Tuple

from repro.kernel import Park
from repro.sim.stats import StatsRegistry

#: Park scopes: a stealing PE sleeps on *global* work visibility (any
#: watched deque), a non-stealing PE only on its own queue.
SCOPE_GLOBAL = "global"
SCOPE_LOCAL = "local"


class _ParkedPE:
    """One parked PE: the anchor loop-top tick and that event's ancestry."""

    __slots__ = ("pe", "anchor", "s_at", "p_s_at", "scope")

    def __init__(self, pe, anchor: int, s_at: int, p_s_at: int,
                 scope: str) -> None:
        self.pe = pe
        self.anchor = anchor
        self.s_at = s_at
        self.p_s_at = p_s_at
        self.scope = scope


class _Plan:
    """A planned resume: the virtual event to re-enter real execution at,
    plus the chain history accessor used to order tied resumes.

    ``cadence`` is ``(head, idle, steps)`` when the history is a uniform
    idle cadence (:func:`_local_chain`), else ``None``.
    """

    __slots__ = ("time", "s_at", "p_s_at", "value", "elided", "chain",
                 "cadence")

    def __init__(self, time: int, s_at: int, p_s_at: int, value,
                 elided: int, chain: Callable[[int], Optional[int]],
                 cadence: Optional[Tuple[int, int, int]] = None) -> None:
        self.time = time
        self.s_at = s_at
        self.p_s_at = p_s_at
        self.value = value
        self.elided = elided
        self.chain = chain
        self.cadence = cadence


def _local_chain(f: int, steps: int, idle: int, s_at: int, p_s_at: int
                 ) -> Callable[[int], Optional[int]]:
    """Backward history of a uniform-cadence idle chain, lazily.

    Position 0 is the resume tick ``f``; walking back one poll per step
    down to the anchor ``f - steps * idle``, then the park event's own
    scheduling ancestry, then exhausted.  Lazy because a long-idle PE may
    have skipped millions of polls.
    """

    def chain(k: int) -> Optional[int]:
        if k <= steps:
            return f - k * idle
        if k == steps + 1:
            return s_at
        if k == steps + 2:
            return p_s_at
        return None

    return chain


def _list_chain(times: List[int]) -> Callable[[int], Optional[int]]:
    """Backward history from an explicit (already reversed) time list."""

    def chain(k: int) -> Optional[int]:
        return times[k] if k < len(times) else None

    return chain


def _chain_order(a: Tuple[_Plan, "_ParkedPE", int],
                 b: Tuple[_Plan, "_ParkedPE", int]) -> int:
    """Compare two plans the way the polling heap would have ordered their
    resume events: by event time at each backward position (the composite
    keys of tied events overlap level by level), park order on full tie."""
    pa, pb = a[0], b[0]
    ua, ub = pa.cadence, pb.cadence
    k = 0
    if ua is not None and ub is not None and ua[:2] == ub[:2]:
        # Same head and period: positions 0..min(steps) hold the same
        # ticks, so the first that can differ is the one after.
        k = min(ua[2], ub[2]) + 1
    ca, cb = pa.chain, pb.chain
    while True:
        ta, tb = ca(k), cb(k)
        if ta is None or tb is None:
            break  # lockstep to one chain's horizon: fall to park order
        if ta != tb:
            return -1 if ta < tb else 1
        k += 1
    return a[2] - b[2]


class ParkRegistry:
    """Tracks work visibility and parked PEs for one accelerator."""

    def __init__(self, accel) -> None:
        self.accel = accel
        self.engine = accel.engine
        self._nonempty = 0
        self._parked: List[_ParkedPE] = []  # in park order
        self.stats = StatsRegistry()
        self._elided = self.stats.counter("events_elided")
        self._parks = self.stats.counter("pe_parks")
        self._wakes = self.stats.counter("pe_wakes")

    # -- work visibility ---------------------------------------------------
    def watch(self, deque) -> None:
        """Subscribe to a deque's empty/non-empty transitions."""
        deque.observer = self
        if len(deque):
            self._nonempty += 1

    def deque_became_nonempty(self, deque) -> None:
        self._nonempty += 1
        if self._parked:
            self._wake_all()

    def deque_became_empty(self, deque) -> None:
        self._nonempty -= 1

    @property
    def work_visible(self) -> bool:
        """True when any watched deque holds at least one task."""
        return self._nonempty > 0

    @property
    def events_elided(self) -> int:
        return self._elided.value

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    def is_parked(self, pe) -> bool:
        """Whether ``pe`` currently holds no engine event (diagnostics)."""
        return any(rec.pe is pe for rec in self._parked)

    # -- parking -----------------------------------------------------------
    def park(self, pe, scope: str = SCOPE_GLOBAL) -> Park:
        """Park ``pe`` at the current loop-top; returns the engine request.

        The caller (the PE main loop) guarantees the park precondition:
        the run is not done, and no task is visible in the PE's scope.
        """
        s_at, p_s_at = self.engine.current_ancestry
        self._parked.append(
            _ParkedPE(pe, self.engine.now, s_at, p_s_at, scope)
        )
        self._parks.inc()
        if self.accel.telemetry is not None:
            self.accel.telemetry.parked(pe.pe_id)
        return Park()

    def notify_done(self) -> None:
        """The run completed: wake everyone so the loops can exit (at the
        same ticks their next polls would have observed ``done``)."""
        if self._parked:
            self._wake_all()

    # -- wakeup ------------------------------------------------------------
    def _wake_all(self) -> None:
        key = self.engine.current_key
        parked, self._parked = self._parked, []
        # Plan every resume first (replay side effects — LFSR draws, per-PE
        # and network counters — are independent across PEs), then issue
        # them in chain-history order so tied resumes get the sequence
        # numbers the polling heap would have held (see module docstring).
        entries = []
        for idx, rec in enumerate(parked):
            if rec.scope == SCOPE_LOCAL:
                plan = self._plan_local(rec, key)
            else:
                plan = self._plan_stealing(rec, key)
            entries.append((plan, rec, idx))
        if len(entries) > 1:
            entries.sort(key=cmp_to_key(_chain_order))
        tel = self.accel.telemetry
        for plan, rec, _ in entries:
            self._elided.inc(plan.elided)
            if tel is not None:
                tel.woke(rec.pe.pe_id, plan.time, plan.elided)
            self.engine.resume_at(rec.pe.proc, plan.time, plan.value,
                                  plan.s_at, plan.p_s_at)
        self._wakes.inc(len(parked))

    def _plan_local(self, rec: _ParkedPE, key: Tuple[int, int, int]) -> _Plan:
        """Next quantized poll boundary of a non-stealing PE."""
        idle = self.accel.config.idle_poll_cycles
        f, s, p = rec.anchor, rec.s_at, rec.p_s_at
        skipped = 0
        # Fast-forward: after two virtual polls the ancestry is fully
        # determined by the boundary time, so jump to just below the wake
        # tick and settle the last couple of steps (and any same-tick
        # ordering tie) one poll at a time.
        gap = key[0] - f
        if gap > 3 * idle:
            jump = gap // idle - 2
            f += jump * idle
            s, p = f - idle, f - 2 * idle
            skipped += jump
        while (f, s, p) < key:
            skipped += 1
            f, s, p = f + idle, f, s
        steps = (f - rec.anchor) // idle  # polls between anchor and resume
        chain = _local_chain(f, steps, idle, rec.s_at, rec.p_s_at)
        return _Plan(f, s, p, None, skipped, chain, (f, idle, steps))

    def _plan_stealing(self, rec: _ParkedPE, key: Tuple[int, int, int]
                       ) -> _Plan:
        """Replay a stealing PE's failed-poll timeline up to the wakeup.

        The PE's scheduler replays the attempts
        (:meth:`~repro.sched.base.PEScheduler.replay_misses`: the picks,
        the policy's miss observations, the network counters and the
        telemetry); this charges the PE's attempt count and turns the
        replayed event times into the chain history the tie order reads.
        """
        pe = rec.pe
        accel = self.accel
        sched = pe.sched
        resume, attempts, times = sched.replay_misses(
            accel.net, self._victim_tiles, accel.config.steal_backoff_cycles,
            (rec.anchor, rec.s_at, rec.p_s_at), key, accel.telemetry)
        if sched.counts_steals:
            pe.stats.steal_attempts += attempts
        times.reverse()
        times += (rec.s_at, rec.p_s_at)
        return _Plan(*resume, _list_chain(times))

    @cached_property
    def _victim_tiles(self) -> List[int]:
        """Tile of each victim id, from ``accel.victim_tile``; built on the
        first stealing replay, since LiteArch PEs never steal and its
        ``victim_tile`` raises."""
        accel = self.accel
        return [accel.victim_tile(v) for v in range(accel.num_victims)]
