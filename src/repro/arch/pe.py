"""Processing element: application worker + task management unit.

Each PE couples the application-specific worker datapath with a TMU that
owns a bounded work-stealing deque (Section III-A).  The PE main loop:

1. Pop a task from the local queue (LIFO by default — depth-first
   traversal of the task graph for locality; the pop end is bound from
   the scheduling policy).
2. If the queue is empty, ask the scheduling policy (``repro.sched``)
   for a victim and steal over the work-stealing network.  The default
   ``random`` policy reproduces the paper's protocol bit-exactly: an
   LFSR-drawn victim, one task from the *head* of its queue (the head
   task is closest to the spawn-tree root, i.e. the biggest chunk of
   work).  Other policies change the victim choice (``hierarchical``,
   ``occupancy``) or the transfer amount (``steal_half``).
3. Execute the task: the worker runs functionally, then its recorded
   operations are replayed with timing — compute cycles, memory-port
   stalls, P-Store round trips for successor creation, queue pushes for
   spawns, and fire-and-forget argument sends.

LiteArch PEs use the same class with stealing disabled; their workers never
create successors or spawn (enforced by the engine).

When the accelerator carries a :class:`~repro.arch.wakeup.ParkRegistry`
(``config.park_idle_pes``), an idle PE parks instead of polling: it holds
no engine event until work becomes visible, and the registry replays the
elided poll/steal cadence on wakeup so the simulated timeline is
bit-exact with the polling loop (see ``repro/arch/wakeup.py``).

Resilience hooks (``repro.resil``; every path below is unreachable
without a fault plan or with the knobs at their fail-fast defaults):

* a lost steal request is retried after ``steal_timeout_cycles`` when
  ``steal_retry`` is on, else the thief stalls forever waiting for the
  response (the watchdog names it);
* a transient PE fault discards the in-progress attempt and re-executes
  the task after ``pe_fault_recovery_cycles`` when ``pe_fault_retry`` is
  on — requiring an *idempotent* worker, checked by comparing the
  faulted attempt's operation stream against the retry — else the PE
  fails permanently with the task lost;
* a P-Store allocation NACK (``pstore_backpressure``) rolls back the
  attempt's allocations in reverse order (so a retry draws the same
  entry ids) and retries with exponential backoff;
* a task-queue overflow on spawn executes the child inline at the
  spawning PE when ``spawn_overflow_inline`` is on.
"""

from __future__ import annotations

from math import ceil
from typing import Generator, List, Optional

from repro.arch.config import MEMORY_STREAM
from repro.core.context import (
    ComputeOp,
    MemOp,
    SendArgOp,
    SpawnOp,
    SuccessorOp,
    WorkerContext,
)
from repro.core.deque import WorkStealingDeque
from repro.core.exceptions import (
    ProtocolError,
    PStoreFullError,
    PStoreNack,
    TaskQueueOverflowError,
)
from repro.core.task import Continuation, Task
from repro.arch.result import PEStats
from repro.arch.wakeup import SCOPE_GLOBAL, SCOPE_LOCAL
from repro.resil.faults import (
    PE_TRANSIENT,
    STEAL_DELAY,
    STEAL_DROP,
    op_signature,
)
from repro.kernel import Park, Timeout


class TaskManagementUnit:
    """The TMU: a bounded deque plus steal-side bookkeeping."""

    def __init__(self, pe_id: int, capacity: int) -> None:
        self.deque: WorkStealingDeque[Task] = WorkStealingDeque(
            capacity=capacity, name=f"tmu{pe_id}"
        )

    def push_tail(self, task: Task) -> None:
        self.deque.push_tail(task)

    def pop_tail(self) -> Optional[Task]:
        return self.deque.pop_tail()

    def steal_head(self) -> Optional[Task]:
        return self.deque.steal_head()

    @property
    def high_water(self) -> int:
        return self.deque.high_water


class ProcessingElement:
    """One PE of the accelerator (worker + TMU), as an engine process."""

    def __init__(self, accel, pe_id: int, worker, steal_enabled: bool) -> None:
        self.accel = accel
        self.config = accel.config
        self.pe_id = pe_id
        self.tile_id = accel.config.tile_of(pe_id)
        self.worker = worker
        self.steal_enabled = steal_enabled
        self.tmu = TaskManagementUnit(pe_id, accel.config.task_queue_entries)
        # Per-PE scheduling state (victim selection + the scheduling
        # LFSR), built by the accelerator's policy (repro.sched).
        self.sched = accel.sched_policy.scheduler_for(self)
        self.stats = PEStats(pe_id)
        # Every yielded Timeout comes from the accelerator's by-delay
        # table (see _timeout); the fixed-latency hot yields keep theirs
        # as attributes.
        cfg = accel.config
        self._timeouts = accel.timeouts
        self._t_pop = self._timeout(cfg.queue_op_cycles + cfg.dispatch_cycles)
        self._t_idle = self._timeout(cfg.idle_poll_cycles)
        self._t_backoff = self._timeout(cfg.steal_backoff_cycles)
        self._t_dispatch = self._timeout(cfg.dispatch_cycles)
        self._t_queue_op = self._timeout(cfg.queue_op_cycles)
        self._t_pstore_rt = self._timeout(2 * cfg.pstore_local_cycles)
        self._t_arg_issue = self._timeout(1)
        # One bound call per memory op: the model's access, this PE's
        # port (its tile's L1, or the PE itself in stream-buffer mode)
        # and the clock period that converts the stall it returns.
        self._mem_access = accel.memory.access
        self._mem_port = pe_id if cfg.memory == MEMORY_STREAM else self.tile_id
        self._period_ns = cfg.clock.period_ns
        self._busy_since: Optional[int] = None
        # Engine process handle, set by the accelerator when it starts the
        # PE; the park registry needs it to resume a parked loop.
        self.proc = None
        # Execution-state visibility for the progress watchdog: the task
        # being executed (None between tasks), when it started, whether
        # the PE failed permanently, and why it is stalled (if it is).
        self.current_task: Optional[Task] = None
        self.exec_started_at = -1
        self.failed = False
        self.stall_reason: Optional[str] = None
        self._exec_depth = 0
        # Continuations allocated by the current functional attempt,
        # tracked only while a P-Store NACK may roll them back.
        self._attempt_allocs: Optional[List[Continuation]] = None
        self._shadow_entries = 0

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """Main PE loop (an engine process).

        With a park registry, the idle branches suspend instead of
        spinning.  A parked PE is resumed by the registry either at a
        loop-top boundary (resume value ``None`` — fall through to the
        next iteration) or mid-steal at the victim-probe tick (resume
        value is the victim id the replay already drew — finish that
        attempt for real).  Either way the resume tick is exactly where
        the polling loop would have been.
        """
        cfg = self.config
        accel = self.accel
        registry = accel.park_registry
        pop_local = accel.sched_policy.local_pop(self.tmu.deque)
        while not accel.done:
            task = pop_local()
            if task is not None:
                if accel.telemetry is not None:
                    accel.telemetry.task_dispatched(self.pe_id, task)
                yield self._t_pop
                yield from self._execute(task)
                continue
            # Fast path: a PE with no possible victim (stealing disabled,
            # or a single-PE machine whose only peer is the IF block and
            # the IF deque is the sole watched source) never enters the
            # steal protocol here — *except* that a single-PE FlexArch
            # still probes the IF block below (num_victims == 2 counts
            # the IF).  Those root-fetch probes are timed identically to
            # real steals but are interface protocol, not load
            # balancing: ``sched.counts_steals`` keeps them out of the
            # steal_attempts/steal_hits statistics (the single-PE
            # bookkeeping fix — a 1-PE run now reports zero attempts).
            if not self.steal_enabled or accel.num_victims < 2:
                if registry is not None:
                    yield registry.park(self, scope=SCOPE_LOCAL)
                else:
                    yield self._t_idle
                continue
            if registry is not None and not registry.work_visible:
                resumed = yield registry.park(self, scope=SCOPE_GLOBAL)
                if resumed is None:
                    continue
                stolen = yield from self._finish_steal(resumed)
            else:
                stolen = yield from self._steal_once()
            if stolen is None:
                yield self._t_backoff
            else:
                yield self._t_dispatch
                yield from self._execute(stolen)

    def _steal_once(self) -> Generator:
        """One steal attempt over the work-stealing network (or several,
        when a fault plan drops requests and ``steal_retry`` is on)."""
        accel = self.accel
        cfg = self.config
        plan = accel.faults
        retries = 0
        while True:
            victim_id = self.sched.pick_victim()
            if self.sched.counts_steals:
                self.stats.steal_attempts += 1
            if accel.telemetry is not None:
                accel.telemetry.steal_request(
                    self.pe_id, victim_id, hops=self._hops(victim_id)
                )
            request = accel.net.steal_request_latency(
                self.tile_id, accel.victim_tile(victim_id)
            )
            fault = plan.steal_fault() if plan is not None else None
            if fault is not None and fault[0] == "drop":
                # The request died before the victim probe: no task can
                # be lost with it, only the thief's response wait.  The
                # policy observes nothing (no response came back).
                self.sched.note_drop(victim_id)
                if accel.telemetry is not None:
                    accel.telemetry.fault(STEAL_DROP, pe=self.pe_id,
                                          data={"victim": victim_id})
                if not cfg.steal_retry:
                    self.stall_reason = (
                        f"steal request to victim {victim_id} lost "
                        "(steal_retry disabled)"
                    )
                    yield Park()  # waits forever; the watchdog names it
                    return None
                plan.note_recovery(STEAL_DROP)
                retries += 1
                if retries > cfg.steal_retry_limit:
                    # Give up this round: treat the timeout like a NACK
                    # and let the main loop back off and re-attempt.
                    yield self._timeout(cfg.steal_timeout_cycles)
                    return None
                self.stats.steal_retries += 1
                if accel.telemetry is not None:
                    accel.telemetry.recovery("steal-retry", pe=self.pe_id,
                                             data={"victim": victim_id})
                yield self._timeout(cfg.steal_timeout_cycles)
                continue
            extra = 0
            if fault is not None:  # ("delay", cycles): absorbed in flight
                extra = fault[1]
                plan.note_recovery(STEAL_DELAY)
                if accel.telemetry is not None:
                    accel.telemetry.fault(STEAL_DELAY, pe=self.pe_id,
                                          data={"victim": victim_id,
                                                "cycles": extra})
            yield self._timeout(request)
            stolen = yield from self._finish_steal(victim_id, extra=extra)
            return stolen

    def _timeout(self, delay: int) -> Timeout:
        """The interned ``Timeout(delay)``, built (and so validated) on
        first use; the kernel only reads ``.delay``, so one object serves
        every yield of that delay.  ``_execute`` inlines this lookup in
        its op loop."""
        timeout = self._timeouts.get(delay)
        if timeout is None:
            timeout = self._timeouts[delay] = Timeout(delay)
        return timeout

    def _hops(self, victim_id: int) -> int:
        """Victim distance in crossbar hops (0 = tile-local; the IF
        block always sits a full hop away)."""
        accel = self.accel
        return 0 if accel.victim_tile(victim_id) == self.tile_id else 1

    def _finish_steal(self, victim_id: int, extra: int = 0) -> Generator:
        """Probe the victim's queue and ride the response back.

        The victim side grants per the policy's steal plan (head-one for
        the paper's protocol; a bulk for ``steal_half``).  The first
        granted task is dispatched by the caller; the rest land in this
        PE's own queue, each serialising one extra ``queue_op_cycles``
        beat on the response.  The response also carries the victim's
        post-grant queue depth — the occupancy hint fed back to the
        policy via ``note_steal``.
        """
        accel = self.accel
        cfg = self.config
        hops = self._hops(victim_id)
        tasks, depth_after = accel.steal_from(victim_id)
        self.sched.note_steal(victim_id, len(tasks), depth_after)
        if accel.telemetry is not None:
            accel.telemetry.steal_result(
                self.pe_id, victim_id, tasks[0] if tasks else None,
                hops=hops, count=len(tasks),
            )
        response = accel.net.steal_response_latency(
            self.tile_id, accel.victim_tile(victim_id)
        ) + extra
        if len(tasks) > 1:
            response += (len(tasks) - 1) * cfg.queue_op_cycles
        yield self._timeout(response)
        if not tasks:
            return None
        if self.sched.counts_steals:
            self.stats.steal_hits += 1
            if hops:
                self.stats.steal_hits_remote += 1
        # Bulk surplus: everything beyond the dispatched task goes into
        # this PE's own queue, locally poppable and stealable.
        for surplus in tasks[1:]:
            if accel.telemetry is not None:
                accel.telemetry.task_enqueued(self.pe_id, surplus)
            self.tmu.push_tail(surplus)
        return tasks[0]

    # ------------------------------------------------------------------
    def _execute(self, task: Task) -> Generator:
        """Run one task: functional execution, then timed op replay."""
        accel = self.accel
        stats = self.stats
        tel = accel.telemetry
        plan = accel.faults
        engine = accel.engine
        start = engine.now
        # Nested calls (inline spawn on queue overflow) share the outer
        # task's busy window; only the outermost frame charges it.
        outermost = self._exec_depth == 0
        prev_task = self.current_task
        self._exec_depth += 1
        self.current_task = task
        self.exec_started_at = start
        compute_before = stats.compute_cycles
        stall_before = stats.mem_stall_cycles
        uid = -1
        if tel is not None:
            uid = tel.exec_start(self.pe_id, task)
        stats.tasks_executed += 1
        self.worker.check_task_type(task)
        shadow_sig = None
        if plan is not None and plan.pe_fault():
            shadow_sig = yield from self._transient_fault(task)
        # The functional attempt; a P-Store NACK takes the retry path.
        ctx = WorkerContext(self.pe_id, self._alloc_successor)
        self._attempt_allocs = []
        try:
            self.worker.execute(task, ctx)
        except PStoreNack as nack:
            ctx = yield from self._retry_nacked(task, nack)
        self._attempt_allocs = None
        if shadow_sig is not None and op_signature(ctx.ops) != shadow_sig:
            raise ProtocolError(
                f"non-idempotent re-execution of {task.task_type!r} on "
                f"pe{self.pe_id}: the retried attempt recorded a different "
                "operation stream than the faulted one — pe_fault_retry "
                "requires idempotent workers"
            )
        if not accel.allow_dynamic and (ctx.spawned or ctx.successors):
            raise ProtocolError(
                "LiteArch workers cannot spawn tasks or create successors "
                f"(task {task.task_type!r})"
            )
        # Heterogeneous workers: a shared-kind task must win its tile's
        # shared datapath unit for its compute duration before running.
        if accel.worker_units is not None:
            kind = accel.worker_units.kind(task.task_type)
            if kind is not None and ctx.compute_cycles:
                wait = accel.worker_units.acquire(
                    self.tile_id, kind, engine.now, ctx.compute_cycles
                )
                if wait:
                    yield self._timeout(wait)
        timeouts = self._timeouts
        access = self._mem_access
        port = self._mem_port
        period_ns = self._period_ns
        scratchpad_local = accel.scratchpad_local
        # Dispatch on the record's class, the two per-op kinds first.
        # Compute and stall Timeouts come from the by-delay table
        # (_timeout, inline); a stall converts to whole cycles as
        # ClockDomain.ns_to_cycles does, with the bound period.
        for op in ctx.ops:
            cls = op.__class__
            if cls is ComputeOp:
                cycles = op.cycles
                stats.compute_cycles += cycles
                timeout = timeouts.get(cycles)
                if timeout is None:
                    timeout = timeouts[cycles] = Timeout(cycles)
                yield timeout
            elif cls is MemOp:
                if op.scratchpad and scratchpad_local:
                    continue  # worker-local BRAM, absorbed by the pipeline
                stall_ns = access(port, op.addr, op.nbytes, op.is_write,
                                  engine.now * period_ns)
                if stall_ns > 0.0:
                    stall = ceil(stall_ns / period_ns - 1e-9)
                    if stall:
                        stats.mem_stall_cycles += stall
                        if tel is not None:
                            tel.mem_stall(self.pe_id, stall)
                        timeout = timeouts.get(stall)
                        if timeout is None:
                            timeout = timeouts[stall] = Timeout(stall)
                        yield timeout
            elif cls is SuccessorOp:
                # cont_req/cont_resp round trip to the local P-Store.
                yield self._t_pstore_rt
            elif cls is SpawnOp:
                yield self._t_queue_op
                accel.add_work()
                if tel is not None:
                    tel.task_spawned(self.pe_id, op.task)
                target = accel.sched_policy.spawn_target(self.pe_id)
                if target is not None and target != self.pe_id:
                    # Remote placement: the child rides the task network
                    # to the policy-chosen PE (none of the built-in
                    # policies use this — self-push is the hardware
                    # default — but the decision point is the policy's).
                    latency = accel.net.task_return_latency(
                        self.tile_id, self.config.tile_of(target)
                    )
                    engine.schedule(
                        latency,
                        lambda t=op.task, p=target:
                            accel._enqueue_ready(p, t),
                    )
                    continue
                try:
                    self.tmu.push_tail(op.task)
                except TaskQueueOverflowError as exc:
                    if not self.config.spawn_overflow_inline:
                        raise TaskQueueOverflowError(
                            f"pe{self.pe_id} task queue overflow spawning "
                            f"{op.task.task_type!r}: "
                            f"{len(self.tmu.deque)}/{self.tmu.deque.capacity}"
                            " entries — raise task_queue_entries or enable "
                            "spawn_overflow_inline"
                        ) from exc
                    # Graceful degradation: execute the child inline, as
                    # a software runtime would on a full deque.  Serial
                    # but correct; the spawn becomes a nested call.
                    stats.inline_spawns += 1
                    if tel is not None:
                        tel.recovery("spawn-inline", pe=self.pe_id,
                                     data={"type": op.task.task_type})
                    yield from self._execute(op.task)
            elif cls is SendArgOp:
                yield self._t_arg_issue  # arg_out issue
                if tel is not None:
                    tel.arg_sent(self.pe_id, op.cont)
                accel.send_arg(self.pe_id, op.cont, op.value)
        if outermost:
            stats.busy_cycles += engine.now - start
        if tel is not None:
            tel.exec_end(self.pe_id, uid,
                         stats.compute_cycles - compute_before,
                         stats.mem_stall_cycles - stall_before)
        self._exec_depth -= 1
        self.current_task = prev_task
        accel.sub_work()

    def _retry_nacked(self, task: Task, nack: PStoreNack) -> Generator:
        """Retry a functional attempt the P-Store NACKed; returns the
        context of the attempt that succeeds.

        Backpressure rollback frees each failed attempt's allocations in
        *reverse* order so the free list is restored exactly and the
        retry draws the same entry ids; the backoff grows exponentially
        (capped) until ``pstore_retry_limit``, after which the enriched
        :class:`PStoreFullError` reports a structurally undersized store.
        """
        accel = self.accel
        cfg = self.config
        attempt = 0
        while True:
            allocs, self._attempt_allocs = self._attempt_allocs, None
            for cont in reversed(allocs):
                accel.rollback_successor(cont)
            self.stats.pstore_nacks += 1
            attempt += 1
            if attempt >= cfg.pstore_retry_limit:
                err = PStoreFullError(
                    f"P-Store tile {nack.tile} still full after "
                    f"{attempt} backpressure retries allocating "
                    f"{nack.task_type!r} for pe{self.pe_id} "
                    f"({nack.occupancy}/{nack.capacity} entries) — "
                    "the pending-task footprint exceeds the store "
                    "structurally; raise pstore_entries"
                )
                err.tile = nack.tile
                err.occupancy = nack.occupancy
                err.capacity = nack.capacity
                err.task_type = nack.task_type
                err.creator_pe = self.pe_id
                raise err from nack
            if accel.telemetry is not None:
                accel.telemetry.recovery(
                    "pstore-retry", pe=self.pe_id,
                    data={"tile": nack.tile, "attempt": attempt},
                )
            yield self._timeout(
                cfg.pstore_retry_backoff_cycles << min(attempt - 1, 6)
            )
            ctx = WorkerContext(self.pe_id, self._alloc_successor)
            self._attempt_allocs = []
            try:
                self.worker.execute(task, ctx)
            except PStoreNack as exc:
                nack = exc
            else:
                return ctx

    def _transient_fault(self, task: Task) -> Generator:
        """Handle an injected transient PE fault at execution start.

        Without ``pe_fault_retry`` the PE fails permanently (the task is
        lost and the watchdog reports the PE as FAILED).  With it, the
        faulted attempt runs against a shadow context — placeholder
        successor allocations, no architectural side effects — and is
        discarded; after ``pe_fault_recovery_cycles`` the caller re-runs
        the task for real and checks the retry recorded the same
        operation stream (idempotence).
        """
        accel = self.accel
        cfg = self.config
        tel = accel.telemetry
        if tel is not None:
            tel.fault(PE_TRANSIENT, pe=self.pe_id,
                      data={"type": task.task_type})
        if not cfg.pe_fault_retry:
            self.failed = True
            self.stall_reason = (
                f"transient fault executing {task.task_type!r} "
                "(pe_fault_retry disabled)"
            )
            yield Park()  # the PE is dead; nothing ever resumes it
            return None   # pragma: no cover - unreachable
        shadow = WorkerContext(self.pe_id, self._shadow_alloc)
        self.worker.execute(task, shadow)
        self.stats.pe_faults += 1
        yield self._timeout(cfg.pe_fault_recovery_cycles)
        accel.faults.note_recovery(PE_TRANSIENT)
        if tel is not None:
            tel.recovery("pe-reexec", pe=self.pe_id,
                         data={"type": task.task_type})
        return op_signature(shadow.ops)

    def _alloc_successor(self, task_type, k, njoin, static_args):
        cont = self.accel.alloc_successor(
            self.pe_id, task_type, k, njoin, static_args
        )
        if self._attempt_allocs is not None:
            self._attempt_allocs.append(cont)
        return cont

    def _shadow_alloc(self, task_type, k, njoin, static_args):
        """Placeholder allocator for a faulted attempt: hands out distinct
        throwaway continuations without touching any P-Store."""
        self._shadow_entries += 1
        return Continuation(-2, self._shadow_entries, 0)  # never HOST (-1)
