"""Processing element: application worker + task management unit.

Each PE couples the application-specific worker datapath with a TMU, a
bounded work-stealing deque (``ProcessingElement.deque``; Section
III-A).  The PE main loop:

1. Pop a task from the local queue (LIFO by default — depth-first
   traversal of the task graph for locality; the ``local_order``
   ablation pops FIFO).
2. If the queue is empty, ask the scheduling policy (``repro.sched``)
   for a victim and steal over the work-stealing network.  The default
   ``random`` policy reproduces the paper's protocol bit-exactly: an
   LFSR-drawn victim, one task from the *head* of its queue (the head
   task is closest to the spawn-tree root, i.e. the biggest chunk of
   work).  Other policies change the victim choice (``hierarchical``,
   ``occupancy``) or the transfer amount (``steal_half``).
3. Execute the task: the worker runs functionally, then its recorded
   operations are replayed with timing — compute cycles, memory-port
   stalls, P-Store round trips for successor creation, pushes of
   spawned children into this PE's own queue, and fire-and-forget
   argument sends.

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
from repro.kernel import Park


class ProcessingElement:
    """One PE of the accelerator (worker + TMU), as an engine process."""

    def __init__(self, accel, pe_id: int, worker, steal_enabled: bool) -> None:
        self.accel = accel
        self.config = accel.config
        self.pe_id = pe_id
        self.tile_id = accel.config.tile_of(pe_id)
        self.worker = worker
        self.steal_enabled = steal_enabled
        #: The TMU's bounded task queue.
        self.deque: WorkStealingDeque[Task] = WorkStealingDeque(
            capacity=accel.config.task_queue_entries, name=f"tmu{pe_id}"
        )
        self._push_tail = self.deque.push_tail
        # Per-PE scheduling state (victim selection + the scheduling
        # LFSR), built by the accelerator's policy (repro.sched).
        self.sched = accel.sched_policy.scheduler_for(self)
        self.stats = PEStats(pe_id)
        # Every yielded Timeout comes from the accelerator's by-delay
        # table (BaseAccelerator.timeouts); the fixed-latency hot yields
        # keep theirs as attributes.
        cfg = accel.config
        timeouts = accel.timeouts
        self._t_pop = timeouts[cfg.queue_op_cycles + cfg.dispatch_cycles]
        self._t_idle = timeouts[cfg.idle_poll_cycles]
        self._t_backoff = timeouts[cfg.steal_backoff_cycles]
        self._t_dispatch = timeouts[cfg.dispatch_cycles]
        self._t_queue_op = timeouts[cfg.queue_op_cycles]
        self._t_pstore_rt = timeouts[2 * cfg.pstore_local_cycles]
        self._t_arg_issue = timeouts[1]
        # One bound call per memory op: the model's access, this PE's
        # port (its tile's L1, or the PE itself in stream-buffer mode)
        # and the clock period that converts the stall it returns.
        self._mem_access = accel.memory.access
        self._mem_port = pe_id if cfg.memory == MEMORY_STREAM else self.tile_id
        self._period_ns = cfg.clock.period_ns
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
        # Continuations allocated by the latest functional attempt,
        # tracked only under pstore_backpressure, the one configuration
        # in which a P-Store NACK rolls them back.
        self._attempt_allocs: Optional[List[Continuation]] = None
        self._shadow_entries = 0

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """Main PE loop (an engine process), and every task the PE runs.

        With a park registry, the idle branches suspend instead of
        spinning.  A parked PE is resumed by the registry either at a
        loop-top boundary (resume value ``None`` — fall through to the
        next iteration) or mid-steal at the victim-probe tick (resume
        value is the victim id the replay already drew — finish that
        attempt for real).  Either way the resume tick is exactly where
        the polling loop would have been.

        A task runs inline in this one frame: the functional attempt,
        the timed replay of its ops, then its end-of-task accounting.  A
        spawn that overflows the full queue under
        ``spawn_overflow_inline`` suspends the spawning task's replay on
        a stack local to the frame, runs the child through the same
        code, and resumes the parent at its next op, with the parent's
        exec start restored for the watchdog; the child shares the
        parent's busy window.
        """
        accel = self.accel
        cfg = self.config
        engine = accel.engine
        registry = accel.park_registry
        tel = accel.telemetry
        plan = accel.faults
        stats = self.stats
        worker = self.worker
        pe_id = self.pe_id
        tile_id = self.tile_id
        deque = self.deque
        pop_local = (deque.pop_tail if cfg.local_order == "lifo"
                     else deque.pop_head)
        steal_enabled = self.steal_enabled
        # Per-task constants, bound once.
        push_tail = self._push_tail
        send_arg = accel.send_arg
        add_work = accel.add_work
        sub_work = accel.sub_work
        alloc = self._alloc_successor
        task_types = frozenset(worker.task_types)
        backpressure = cfg.pstore_backpressure
        allow_dynamic = accel.allow_dynamic
        worker_units = accel.worker_units
        scratchpad_local = accel.scratchpad_local
        timeouts = accel.timeouts
        access = self._mem_access
        port = self._mem_port
        period_ns = self._period_ns
        t_pop = self._t_pop
        t_dispatch = self._t_dispatch
        t_pstore_rt = self._t_pstore_rt
        t_queue_op = self._t_queue_op
        t_arg_issue = self._t_arg_issue
        # Telemetry's (uid, compute, stall) marks at the running task's
        # exec start; None without telemetry.
        mark = None
        while not accel.done:
            task = pop_local()
            if task is not None:
                if tel is not None:
                    tel.task_dispatched(pe_id, task)
                yield t_pop
            else:
                # A LiteArch PE never steals: it waits for the host's
                # next round.  A FlexArch PE always has a victim, the IF
                # block at least: a single-PE machine probes it for its
                # root tasks, timed like real steals but kept out of the
                # steal statistics (``sched.counts_steals``).
                if not steal_enabled:
                    if registry is not None:
                        yield registry.park(self, scope=SCOPE_LOCAL)
                    else:
                        yield self._t_idle
                    continue
                if registry is not None and not registry.work_visible:
                    resumed = yield registry.park(self, scope=SCOPE_GLOBAL)
                    if resumed is None:
                        continue
                    task = yield from self._finish_steal(resumed)
                else:
                    task = yield from self._steal_once()
                if task is None:
                    yield self._t_backoff
                    continue
                yield t_dispatch
            start = engine.now
            # Tasks whose replay an inline spawn suspended, innermost
            # last, as (task, ops, mark, exec start); ops is None until
            # the running task's functional attempt has recorded them.
            parents = None
            ops = None
            while True:
                if ops is None:
                    # Start `task`: its functional attempt, which records
                    # its ops; a P-Store NACK takes the retry path.
                    self.current_task = task
                    self.exec_started_at = engine.now
                    if tel is not None:
                        mark = (tel.exec_start(pe_id, task),
                                stats.compute_cycles, stats.mem_stall_cycles)
                    stats.tasks_executed += 1
                    if task.task_type not in task_types:
                        worker.check_task_type(task)
                    shadow_sig = None
                    if plan is not None and plan.pe_fault():
                        shadow_sig = yield from self._transient_fault(task)
                    ctx = WorkerContext(pe_id, alloc)
                    if backpressure:
                        # Only an allocation NACK rolls allocations back.
                        self._attempt_allocs = []
                    try:
                        worker.execute(task, ctx)
                    except PStoreNack as nack:
                        ctx = yield from self._retry_nacked(task, nack)
                    if (shadow_sig is not None
                            and op_signature(ctx.ops) != shadow_sig):
                        raise ProtocolError(
                            f"non-idempotent re-execution of "
                            f"{task.task_type!r} on pe{pe_id}: the retried "
                            "attempt recorded a different operation stream "
                            "than the faulted one — pe_fault_retry requires "
                            "idempotent workers"
                        )
                    if not allow_dynamic and (ctx.spawned or ctx.successors):
                        raise ProtocolError(
                            "LiteArch workers cannot spawn tasks or create "
                            f"successors (task {task.task_type!r})"
                        )
                    # Heterogeneous workers: a shared-kind task must win
                    # its tile's shared datapath unit for its compute
                    # duration before running.
                    if worker_units is not None:
                        kind = worker_units.kind(task.task_type)
                        if kind is not None and ctx.compute_cycles:
                            wait = worker_units.acquire(
                                tile_id, kind, engine.now, ctx.compute_cycles
                            )
                            if wait:
                                yield timeouts[wait]
                    ops = iter(ctx.ops)
                # The timed op replay.  Dispatch on the record's class, the
                # two per-op kinds first.  Compute and stall Timeouts come
                # from the by-delay table; a stall converts to whole cycles
                # as ClockDomain.ns_to_cycles does, with the bound period.
                for op in ops:
                    cls = op.__class__
                    if cls is ComputeOp:
                        cycles = op.cycles
                        stats.compute_cycles += cycles
                        yield timeouts[cycles]
                    elif cls is MemOp:
                        if op.scratchpad and scratchpad_local:
                            continue  # worker-local BRAM, absorbed
                        stall_ns = access(port, op.addr, op.nbytes,
                                          op.is_write, engine.now * period_ns)
                        if stall_ns > 0.0:
                            stall = ceil(stall_ns / period_ns - 1e-9)
                            if stall:
                                stats.mem_stall_cycles += stall
                                if tel is not None:
                                    tel.mem_stall(pe_id, stall)
                                yield timeouts[stall]
                    elif cls is SuccessorOp:
                        # cont_req/cont_resp round trip to the local P-Store.
                        yield t_pstore_rt
                    elif cls is SpawnOp:
                        yield t_queue_op
                        add_work()
                        child = op.task
                        if tel is not None:
                            tel.task_spawned(pe_id, child)
                        try:
                            push_tail(child)
                        except TaskQueueOverflowError as exc:
                            if not cfg.spawn_overflow_inline:
                                raise TaskQueueOverflowError(
                                    f"pe{pe_id} task queue overflow spawning "
                                    f"{child.task_type!r}: "
                                    f"{len(deque)}/{deque.capacity}"
                                    " entries — raise task_queue_entries or "
                                    "enable spawn_overflow_inline"
                                ) from exc
                            # Graceful degradation: execute the child
                            # inline, as a software runtime would on a full
                            # deque.  Serial but correct; the spawn becomes
                            # a nested call.
                            stats.inline_spawns += 1
                            if tel is not None:
                                tel.recovery("spawn-inline", pe=pe_id,
                                             data={"type": child.task_type})
                            if parents is None:
                                parents = []
                            parents.append((task, ops, mark,
                                            self.exec_started_at))
                            task = child
                            ops = None
                            break
                    elif cls is SendArgOp:
                        yield t_arg_issue  # arg_out issue
                        if tel is not None:
                            tel.arg_sent(pe_id, op.cont)
                        send_arg(pe_id, tile_id, op.cont, op.value)
                else:
                    # End of `task`.
                    if tel is not None:
                        tel.exec_end(pe_id, mark[0],
                                     stats.compute_cycles - mark[1],
                                     stats.mem_stall_cycles - mark[2])
                    if not parents:
                        break
                    # An inline child finished: resume its parent.
                    task, ops, mark, self.exec_started_at = parents.pop()
                    self.current_task = task
                    sub_work()
            stats.busy_cycles += engine.now - start
            self.current_task = None
            sub_work()

    def _steal_once(self) -> Generator:
        """One steal attempt over the work-stealing network (or several,
        when a fault plan drops requests and ``steal_retry`` is on)."""
        accel = self.accel
        cfg = self.config
        plan = accel.faults
        sched = self.sched
        retries = 0
        while True:
            victim_id = sched.pick_victim()
            if sched.counts_steals:
                self.stats.steal_attempts += 1
            victim_tile = accel.victim_tiles[victim_id]
            if accel.telemetry is not None:
                accel.telemetry.steal_request(
                    self.pe_id, victim_id, hops=sched.hops[victim_id]
                )
            request = accel.net.steal_request_latency(
                self.tile_id, victim_tile
            )
            fault = plan.steal_fault() if plan is not None else None
            if fault is not None and fault[0] == "drop":
                # The request died before the victim probe: no task can
                # be lost with it, only the thief's response wait.  The
                # policy observes nothing (no response came back).
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
                    yield accel.timeouts[cfg.steal_timeout_cycles]
                    return None
                self.stats.steal_retries += 1
                if accel.telemetry is not None:
                    accel.telemetry.recovery("steal-retry", pe=self.pe_id,
                                             data={"victim": victim_id})
                yield accel.timeouts[cfg.steal_timeout_cycles]
                continue
            extra = 0
            if fault is not None:  # ("delay", cycles): absorbed in flight
                extra = fault[1]
                plan.note_recovery(STEAL_DELAY)
                if accel.telemetry is not None:
                    accel.telemetry.fault(STEAL_DELAY, pe=self.pe_id,
                                          data={"victim": victim_id,
                                                "cycles": extra})
            yield accel.timeouts[request]
            stolen = yield from self._finish_steal(victim_id, extra=extra)
            return stolen

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
        sched = self.sched
        hops = sched.hops[victim_id]
        tasks, depth_after = accel.steal_from(victim_id)
        sched.note_steal(victim_id, len(tasks), depth_after)
        if accel.telemetry is not None:
            accel.telemetry.steal_result(
                self.pe_id, victim_id, tasks[0] if tasks else None,
                hops=hops, count=len(tasks),
            )
        response = accel.net.steal_response_latency(
            self.tile_id, accel.victim_tiles[victim_id]
        ) + extra
        if len(tasks) > 1:
            response += (len(tasks) - 1) * cfg.queue_op_cycles
        yield accel.timeouts[response]
        if not tasks:
            return None
        if sched.counts_steals:
            self.stats.steal_hits += 1
            if hops:
                self.stats.steal_hits_remote += 1
        # Bulk surplus: everything beyond the dispatched task goes into
        # this PE's own queue, locally poppable and stealable.
        for surplus in tasks[1:]:
            if accel.telemetry is not None:
                accel.telemetry.task_enqueued(self.pe_id, surplus)
            self._push_tail(surplus)
        return tasks[0]

    # ------------------------------------------------------------------
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
            yield accel.timeouts[
                cfg.pstore_retry_backoff_cycles << min(attempt - 1, 6)
            ]
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
        yield accel.timeouts[cfg.pe_fault_recovery_cycles]
        accel.faults.note_recovery(PE_TRANSIENT)
        if tel is not None:
            tel.recovery("pe-reexec", pe=self.pe_id,
                         data={"type": task.task_type})
        return op_signature(shadow.ops)

    def _alloc_successor(self, task_type, k, njoin, static_args):
        cont = self.accel.alloc_successor(
            self.pe_id, self.tile_id, task_type, k, njoin, static_args
        )
        if self._attempt_allocs is not None:
            self._attempt_allocs.append(cont)
        return cont

    def _shadow_alloc(self, task_type, k, njoin, static_args):
        """Placeholder allocator for a faulted attempt: hands out distinct
        throwaway continuations without touching any P-Store."""
        self._shadow_entries += 1
        return Continuation(-2, self._shadow_entries, 0)  # never HOST (-1)
