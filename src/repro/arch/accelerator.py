"""Timed accelerator engines: FlexArch (and the shared base machinery).

A :class:`FlexAccelerator` instantiates the full Section III architecture:
tiles of PEs with TMUs, one P-Store per tile, crossbar argument and
work-stealing networks, per-tile L1 caches under MOESI coherence, and the
CPU interface block.  Execution is event-driven: each PE is an engine
process, and argument/task messages are scheduled callbacks with network
latencies.

Termination uses an outstanding-work counter: every live task (queued,
executing, or in flight), pending entry, and in-flight argument counts one;
the run is complete when the counter reaches zero.  A positive counter that
stops changing indicates a protocol bug and raises
:class:`~repro.core.exceptions.DeadlockError` via the cycle limit.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.arch.config import (
    MEMORY_COHERENT,
    MEMORY_DMA,
    MEMORY_PERFECT,
    MEMORY_STREAM,
    AcceleratorConfig,
)
from repro.arch.interface import InterfaceBlock
from repro.arch.network import CrossbarNetwork
from repro.arch.pe import ProcessingElement
from repro.arch.pstore import HardwarePStore
from repro.arch.result import RunResult
from repro.arch.wakeup import ParkRegistry
from repro.core.context import Worker
from repro.core.exceptions import (
    ConfigError,
    DeadlockError,
    TaskQueueOverflowError,
)
from repro.core.task import HOST, Continuation, Task
from repro.mem.hierarchy import MemoryHierarchy, PerfectMemory, StreamBufferMemory
from repro.sched import make_policy
from repro.kernel import Timeout, make_engine
from repro.workload import DEFAULT_TENANT_NAME, Job, JobRecord, Tenant

#: Default simulation cycle budget before declaring deadlock.
DEFAULT_MAX_CYCLES = 200_000_000


class TimeoutTable(dict):
    """One interned ``Timeout`` per delay: ``table[delay]`` builds (and
    so validates) it on first use.  The kernel only reads ``.delay``, so
    one object serves every yield of that delay."""

    __slots__ = ()

    def __missing__(self, delay: int) -> Timeout:
        timeout = self[delay] = Timeout(delay)
        return timeout


class BaseAccelerator:
    """Machinery shared by the FlexArch and LiteArch engines."""

    #: Whether workers may spawn tasks / create successors.
    allow_dynamic = True

    #: Whether ``scratchpad`` memory ops hit worker-local BRAM (free).  The
    #: software baseline overrides this: CPUs have no scratchpads, so those
    #: accesses go through the cache hierarchy.
    scratchpad_local = True

    #: Optional :class:`repro.obs.EventSink` recording structured
    #: task-lifecycle events (set via ``repro.obs.attach_telemetry``).
    #: Record-only: attaching one does not perturb simulated cycles.
    telemetry = None

    #: Optional :class:`repro.resil.FaultPlan` injecting deterministic
    #: faults (set via ``repro.resil.attach_faults``).  With no plan
    #: attached the fault checks are single pointer comparisons and the
    #: run is bit-identical to one without the subsystem.
    faults = None

    def __init__(self, config: AcceleratorConfig, worker: Worker) -> None:
        self.config = config
        self.worker = worker
        self.engine = make_engine()
        self.net = CrossbarNetwork(config)
        self.interface = InterfaceBlock()
        self.memory = self._build_memory()
        #: The PEs' shared by-delay ``Timeout`` table.
        self.timeouts = TimeoutTable()
        if config.shared_worker_kinds is not None:
            from repro.arch.hetero import SharedWorkerUnits

            self.worker_units = SharedWorkerUnits(config.shared_worker_kinds)
        else:
            self.worker_units = None
        # Scheduling-policy layer (repro.sched): built before the PEs so
        # each PE can request its per-PE scheduler from the policy.
        self.sched_policy = make_policy(self)
        steal = self.allow_dynamic
        self.pes: List[ProcessingElement] = [
            ProcessingElement(self, i, worker, steal_enabled=steal)
            for i in range(config.num_pes)
        ]
        self.outstanding = 0
        #: Instantaneous task-space high-water mark: live tasks + pending
        #: entries + in-flight arguments (the S_P of Section II-C).
        self.max_outstanding = 0
        self.done = False
        self._started = False
        # Parked-PE wakeup scheduling: watch every deque a PE can take
        # work from, so an idle PE can sleep instead of polling and be
        # woken by the first push that makes work visible.
        if config.park_idle_pes:
            self.park_registry = ParkRegistry(self)
            for pe in self.pes:
                self.park_registry.watch(pe.deque)
            self.park_registry.watch(self.interface.deque)
        else:
            self.park_registry = None

    # ------------------------------------------------------------------
    def _build_memory(self):
        cfg = self.config
        if cfg.memory == MEMORY_COHERENT:
            return MemoryHierarchy(cfg.mem_config())
        if cfg.memory == MEMORY_STREAM:
            return StreamBufferMemory(
                num_requesters=cfg.num_pes,
                buffer_lines=cfg.stream_buffer_lines,
                acp_latency_ns=cfg.acp_latency_ns,
                acp_bandwidth_gbps=cfg.acp_bandwidth_gbps,
                prefetch_depth=cfg.stream_prefetch_depth,
            )
        if cfg.memory == MEMORY_DMA:
            from repro.mem.dma import DmaMemory

            return DmaMemory(
                num_engines=cfg.num_tiles,
                setup_ns=cfg.dma_setup_ns,
                dram_access_ns=cfg.dram_access_ns,
                dram_bandwidth_gbps=cfg.dram_bandwidth_gbps,
            )
        if cfg.memory == MEMORY_PERFECT:
            return PerfectMemory(num_l1=cfg.num_tiles)
        raise ConfigError(f"unknown memory style {cfg.memory!r}")

    # -- outstanding-work accounting -------------------------------------
    def add_work(self, amount: int = 1) -> None:
        self.outstanding += amount
        if self.outstanding > self.max_outstanding:
            self.max_outstanding = self.outstanding

    def sub_work(self, amount: int = 1) -> None:
        self.outstanding -= amount
        if self.outstanding < 0:
            raise DeadlockError(
                "outstanding work counter went negative "
                f"({self.outstanding}): a completion was double-counted"
            )
        if self.outstanding == 0:
            self._set_done()

    def _set_done(self) -> None:
        """Mark the run complete and wake parked PEs so their loops can
        observe ``done`` and exit (at their usual poll boundaries)."""
        self.done = True
        if self.park_registry is not None:
            self.park_registry.notify_done()

    # ------------------------------------------------------------------
    def _start_processes(self) -> None:
        if self._started:
            raise ConfigError("accelerator already ran; build a fresh one")
        self._started = True
        for pe in self.pes:
            pe.proc = self.engine.process(pe.run(), name=f"pe{pe.pe_id}")

    def _enqueue_ready(self, target_pe: int, task: Task) -> None:
        """Push a readied/host-provided task into a PE's bounded queue.

        Runs inside scheduled network-delivery callbacks, where a raw
        :class:`TaskQueueOverflowError` would surface with no context;
        convert it to a :class:`DeadlockError` naming the PE, the queue
        occupancy, and the task that could not be delivered.
        """
        deque = self.pes[target_pe].deque
        if self.telemetry is not None:
            self.telemetry.task_enqueued(target_pe, task)
        try:
            deque.push_tail(task)
        except TaskQueueOverflowError as exc:
            raise DeadlockError(
                f"cannot deliver readied task {task.task_type!r} "
                f"(k={task.k!r}) to pe{target_pe}: task queue full at "
                f"{len(deque)}/{deque.capacity} entries — the architecture "
                "has no backpressure on task returns, so this run cannot "
                "make progress (raise task_queue_entries)"
            ) from exc

    def _run_to_completion(self, max_cycles: int) -> int:
        """Drive the engine to completion, optionally under the watchdog.

        With ``watchdog_interval`` set, the engine runs in interval-sized
        chunks and a progress signature is compared between chunks — a
        stall is diagnosed within two intervals instead of after the full
        cycle budget.  The watchdog never schedules engine events, so the
        chunked execution processes the identical event sequence and
        returns the identical end cycle as the single-call path (asserted
        by ``tests/resil/test_null_invariant.py``).
        """
        interval = self.config.watchdog_interval
        if interval is None:
            self.engine.run(until=max_cycles)
            return self.engine.last_event_time
        from repro.resil.watchdog import (
            diagnose,
            live_execution,
            progress_signature,
        )

        last_sig = None
        deadline = 0
        while deadline < max_cycles:
            deadline = min(deadline + interval, max_cycles)
            self.engine.run(until=deadline)
            if self.done:
                # Drain the remaining PE-exit events so the end cycle
                # matches the unchunked run.
                self.engine.run(until=max_cycles)
                return self.engine.last_event_time
            if self.engine.finished:
                raise diagnose(
                    self, "the event heap drained with the run incomplete"
                )
            sig = progress_signature(self)
            if sig == last_sig and not live_execution(self):
                raise diagnose(
                    self,
                    f"no progress for {interval} cycles "
                    "(watchdog stagnation check)",
                )
            last_sig = sig
        return self.engine.last_event_time

    def _finish(self, max_cycles: int, label: str) -> RunResult:
        end = self._run_to_completion(max_cycles)
        if not self.done:
            from repro.resil.watchdog import diagnose

            pending = self.engine.pending_events
            reason = (
                f"simulation hit the {max_cycles}-cycle limit"
                if pending
                else "the event heap drained with the run incomplete"
            )
            raise diagnose(self, reason)
        mem_summary = self.memory.summary()
        # Finalise occupancy high-water marks (a PE's last stats update
        # happens at its last executed task, which can miss late pushes).
        for pe in self.pes:
            pe.stats.queue_high_water = pe.deque.high_water
        counters = {
            "steal_requests": self.net.steal_stats.steal_requests,
            "arg_messages_local": self.net.arg_stats.local_messages,
            "arg_messages_remote": self.net.arg_stats.remote_messages,
            "outstanding_high_water": self.max_outstanding,
        }
        pstores = getattr(self, "pstores", None)
        if pstores:
            counters["pstore_high_water"] = max(
                ps.stats.high_water for ps in pstores
            )
        registry = self.park_registry
        if registry is not None:
            counters["park.events_elided"] = registry.events_elided
            counters["park.pe_parks"] = registry.pe_parks
            counters["park.pe_wakes"] = registry.pe_wakes
        if self.interface.admission is not None:
            counters["admission_high_water"] = \
                self.interface.admission.max_queued
        if self.worker_units is not None:
            counters.update(self.worker_units.summary())
        if self.faults is not None:
            counters.update(self.faults.counters())
        return RunResult(
            cycles=end,
            clock_mhz=self.config.clock.freq_mhz,
            host=self.interface.host,
            pe_stats=[pe.stats for pe in self.pes],
            mem_summary=mem_summary,
            counters=counters,
            label=label,
        )


class FlexAccelerator(BaseAccelerator):
    """The FlexArch engine: work stealing + distributed P-Stores."""

    allow_dynamic = True

    def __init__(self, config: AcceleratorConfig, worker: Worker) -> None:
        if not config.is_flex:
            raise ConfigError("FlexAccelerator requires arch='flex'")
        super().__init__(config, worker)
        #: Per-job lifecycle records, filled by :meth:`run_workload`
        #: (job id -> record; ``_records_by_slot`` maps the host
        #: continuation slot back to the record for completion stamps).
        self.job_records: Dict[int, JobRecord] = {}
        self._records_by_slot: Dict[int, JobRecord] = {}
        self.pstores = [
            HardwarePStore(t, config.pstore_entries,
                           backpressure=config.pstore_backpressure,
                           ecc=config.pstore_ecc)
            for t in range(config.num_tiles)
        ]
        # Read by every argument delivery that readies a task.
        self._greedy = config.greedy

    # -- work-stealing victim space: all PEs plus the IF block -----------
    @cached_property
    def victim_tiles(self) -> List[int]:
        """Tile of each victim id, built once: each PE's own tile, then
        -1 for the IF block, which sits off-tile (a full hop) because -1
        equals no PE tile.  Its length is the size of the victim space."""
        tile_of = self.config.tile_of
        return [tile_of(v) for v in range(self.config.num_pes)] + [-1]

    def steal_from(self, victim_id: int) -> Tuple[List[Task], int]:
        """Service a steal probe at the victim side.

        Returns ``(tasks, depth_after)``: the tasks granted (empty on a
        miss) and the victim queue depth after the grant — the occupancy
        hint the response message carries back to the thief.  The IF
        block always grants head-one (root fetches are interface
        protocol, not subject to the policy's steal plan); a PE victim
        grants per ``sched_policy.steal_plan``.
        """
        if victim_id == self.config.num_pes:
            task = self.interface.steal_head()
            return ([task] if task is not None else [],
                    len(self.interface.deque))
        deque = self.pes[victim_id].deque
        count, end = self.sched_policy.steal_plan(len(deque))
        take = deque.steal_head if end == "head" else deque.steal_tail
        tasks: List[Task] = []
        while len(tasks) < count:
            task = take()
            if task is None:
                break
            tasks.append(task)
        if tasks:
            self.pes[victim_id].stats.tasks_stolen_from += len(tasks)
        return tasks, len(deque)

    # -- P-Store services -------------------------------------------------
    def alloc_successor(self, pe_id: int, tile: int, task_type: str,
                        k: Continuation, njoin: int,
                        static_args) -> Continuation:
        """Allocate a pending entry in the P-Store of ``tile``, the
        creating PE's tile (its ``tile_id``), or in the one central store
        under ``central_pstore``."""
        if self.config.central_pstore:
            tile = 0
        cont = self.pstores[tile].alloc(
            task_type, k, njoin, static_args, creator_pe=pe_id
        )
        self.add_work()  # the pending entry
        return cont

    def send_arg(self, pe_id: int, from_tile: int, cont: Continuation,
                 value) -> None:
        """Route an argument message (fire-and-forget from the PE).

        ``from_tile`` is the sending PE's tile (its ``tile_id``).

        With a fault plan attached, a P-Store-bound message may be
        dropped, duplicated or delayed in the argument network (host
        results ride the memory-mapped interface and are not subject to
        network faults).  ``arg_retransmit`` recovers drops (sender-side
        timeout + retransmit) and duplicates (sequence-number dedup at
        the P-Store); without it a drop strands the in-flight work unit
        — the watchdog or cycle budget reports the stall — and a
        duplicate delivery trips the P-Store's double-write check.
        """
        self.add_work()  # the in-flight argument
        if cont.owner == HOST:
            self.engine.schedule(self.config.net_hop_cycles,
                                 self._deliver_host, cont, value)
            return
        latency = self.net.arg_latency(from_tile, cont.owner)
        local = from_tile == cont.owner
        fault = self.faults.arg_fault() if self.faults is not None else None
        if fault is not None:
            from repro.resil.faults import ARG_DELAY, ARG_DROP, ARG_DUP

            kind, extra = fault
            if self.telemetry is not None:
                self.telemetry.fault(
                    f"arg-{kind}", pe=pe_id,
                    data={"owner": cont.owner, "entry": cont.entry,
                          "slot": cont.slot},
                )
            if kind == "drop":
                if not self.config.arg_retransmit:
                    return  # lost: the work unit stays outstanding
                # Sender-side timeout, then the retransmitted message
                # traverses the network again (a real second message).
                retrans = self.net.arg_latency(from_tile, cont.owner)
                self.faults.note_recovery(ARG_DROP)
                if self.telemetry is not None:
                    self.telemetry.recovery("arg-retransmit", pe=pe_id)
                self.engine.schedule(
                    latency + self.config.arg_retransmit_cycles + retrans,
                    self._deliver_arg, pe_id, from_tile, cont, value, local,
                )
                return
            if kind == "dup":
                # Original delivers normally; the duplicate follows as a
                # real second message slightly behind it.
                dup_latency = self.net.arg_latency(from_tile, cont.owner)
                self.add_work()  # the duplicate in flight
                self.engine.schedule(latency, self._deliver_arg, pe_id,
                                     from_tile, cont, value, local)
                self.engine.schedule(latency + dup_latency,
                                     self._deliver_arg, pe_id, from_tile,
                                     cont, value, local, True)  # duplicate
                return
            # Delayed in the network: absorbed by the asynchronous
            # protocol, no recovery mechanism required.
            latency += extra
            self.faults.note_recovery(ARG_DELAY)
        self.engine.schedule(latency, self._deliver_arg, pe_id, from_tile,
                             cont, value, local)

    def _deliver_host(self, cont: Continuation, value) -> None:
        if self.telemetry is not None:
            self.telemetry.host_result(cont)
        self.interface.deliver(cont, value)
        record = self._records_by_slot.get(cont.slot)
        if record is not None and record.completed < 0:
            record.completed = self.engine.now
        self.sub_work()

    def rollback_successor(self, cont: Continuation) -> None:
        """Return a pending entry allocated by a NACKed task attempt
        (allocation backpressure; see ``ProcessingElement._retry_nacked``)."""
        self.pstores[cont.owner].rollback(cont.entry)
        self.sub_work()  # the pending entry's work unit

    def _deliver_arg(self, producer_pe: int, producer_tile: int,
                     cont: Continuation, value, local: bool,
                     duplicate: bool = False) -> None:
        if duplicate and self.config.arg_retransmit:
            # Sequence-number dedup at the P-Store ingress: the duplicate
            # is recognised and discarded before touching the entry.
            from repro.resil.faults import ARG_DUP

            self.faults.note_recovery(ARG_DUP)
            if self.telemetry is not None:
                self.telemetry.recovery(
                    "arg-dedup",
                    data={"owner": cont.owner, "entry": cont.entry,
                          "slot": cont.slot},
                )
            self.sub_work()
            return
        # An undetected duplicate falls through: it hits either the
        # P-Store's unallocated-entry check (entry already readied),
        # before it is counted or can be poisoned, or the table's
        # double-write check — loud, never silent.
        pstore = self.pstores[cont.owner]
        # Greedy scheduling: route the readied task back to the PE that
        # produced the last argument (Section III-A).  The non-greedy
        # ablation returns it to the entry's creator instead, read before
        # the delivery can free the entry.
        if self._greedy:
            target_pe, target_tile = producer_pe, producer_tile
        else:
            target_pe = pstore.table.entry(cont.entry).creator
            target_tile = self.config.tile_of(target_pe)
        ready = pstore.deliver(cont, value, local)
        if self.telemetry is not None:
            self.telemetry.arg_delivered(cont, ready, local)
        if ready is None:
            self.sub_work()  # argument consumed
            return
        # Argument consumed (-1) and pending entry resolved (-1), but a
        # ready task is now in flight (+1): net -1.
        self.sub_work()
        latency = self.net.task_return_latency(cont.owner, target_tile)
        self.engine.schedule(latency, self._enqueue_ready, target_pe, ready)

    # ------------------------------------------------------------------
    def run(
        self,
        root: Union[Task, Sequence[Task]],
        max_cycles: int = DEFAULT_MAX_CYCLES,
        label: str = "",
    ) -> RunResult:
        """Closed-system entry point: run root task(s), all arriving at
        t=0, as a degenerate workload (docs/WORKLOADS.md)."""
        roots = [root] if isinstance(root, Task) else list(root)
        jobs = [
            Job(job_id=i, time=0, tenant=DEFAULT_TENANT_NAME, task=task)
            for i, task in enumerate(roots)
        ]
        return self.run_workload(jobs, max_cycles=max_cycles, label=label)

    def run_workload(
        self,
        jobs: Sequence[Job],
        *,
        tenants: Optional[Sequence[Tenant]] = None,
        admit_window: Optional[int] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        label: str = "",
    ) -> RunResult:
        """Run an arrival stream of jobs and simulate to completion.

        ``jobs`` (ordered by ``(time, job_id)``) is the bound arrival
        stream of a :class:`~repro.workload.WorkloadSource`.  Host
        injection is modelled as a serialized memory-mapped write port:
        job *i* becomes visible in the IF block at
        ``max(arrival_i, prev_write_end) + offload_inject_cycles`` —
        which reduces to the classic ``(i+1) * offload_inject_cycles``
        staggering when everything arrives at t=0.  Each job's result
        readback costs ``offload_read_cycles``, charged serially to the
        makespan after the machine drains (per-job latencies exclude
        it; docs/SIMULATOR.md).

        Every job's work unit is accounted *before* the engine starts,
        so the machine cannot drain between arrivals: an idle (parked)
        machine stays alive and wakes when the next arrival's injection
        callback pushes into the IF deque.  With ``admit_window`` set,
        arrivals pass through per-tenant admission queues, released
        earliest arrival first; otherwise they inject directly
        (byte-identical to the pre-workload lifecycle).
        """
        jobs = list(jobs)
        if not jobs:
            raise ConfigError("a workload needs at least one job")
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate job ids in workload: {ids}")
        order = [(job.time, job.job_id) for job in jobs]
        if order != sorted(order):
            raise ConfigError(
                "workload jobs must be ordered by (time, job_id)"
            )
        if admit_window is not None:
            if tenants is None:
                names = []
                for job in jobs:
                    if job.tenant not in names:
                        names.append(job.tenant)
                tenants = [Tenant(name=name) for name in names]
            self.interface.configure_admission(self.engine, tenants,
                                               admit_window)
        for job in jobs:
            record = JobRecord(job_id=job.job_id, tenant=job.tenant,
                               arrival=job.time)
            self.job_records[job.job_id] = record
            if job.task.k.is_host:
                self._records_by_slot.setdefault(job.task.k.slot, record)
        # Serialized memory-mapped injection: one write port, each
        # descriptor write takes offload_inject_cycles, and a burst of
        # arrivals queues behind the port.
        write_free = 0
        for job in jobs:
            visible = (max(job.time, write_free)
                       + self.config.offload_inject_cycles)
            write_free = visible
            self.add_work()
            self.engine.schedule(visible, self._arrive, job)
        self._start_processes()
        result = self._finish(max_cycles,
                              label or f"flex{self.config.num_pes}")
        # Per-job result readback over the memory-mapped interface.
        result.cycles += self.config.offload_read_cycles * len(jobs)
        result.jobs = [self.job_records[job.job_id].as_dict()
                       for job in jobs]
        return result

    def _arrive(self, job: Job) -> None:
        """Injection-visibility callback: the host write completed."""
        record = self.job_records[job.job_id]
        record.injected = self.engine.now
        self.interface.submit(job, record, self.engine.now)
