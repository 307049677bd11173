"""Structured task-lifecycle event recording.

The :class:`EventSink` is the heart of the telemetry subsystem: an opt-in
recorder that components emit typed events into as the simulation runs.
Every emission site in the simulator is guarded by a single attribute
check (``if telemetry is not None``), so a run without an attached sink
pays one pointer comparison per site and allocates nothing.

Two invariants make telemetry safe to leave on for measurement runs:

* **Record-only.**  The sink never schedules engine events, never draws
  from an LFSR, and never touches component state — it only appends to
  its own buffers.  Simulated cycle counts, steal statistics, and victim
  sequences are therefore bit-identical with telemetry on or off
  (asserted by ``tests/obs/test_telemetry.py``).
* **Post-hoc derivation.**  Anything that looks like "periodic
  measurement" (the epoch sampler, counter tracks in the Chrome trace)
  is derived from the event log *after* the run, so no sampling clock
  ever shares the event heap with the simulation.

Besides the flat event list, the sink maintains one :class:`TaskRecord`
per task with the full lifecycle timeline (created, enqueued,
dispatched, execute window) and the spawn/join dependency edges used by
:mod:`repro.obs.critical_path`.

Task identity is tracked by object identity (``id(task)``) while a task
is in flight — tasks are frozen dataclasses passed by reference from
spawn to execution — and released at execute-start so identity reuse
after garbage collection cannot mis-correlate records.

Elided idle time (the parked-PE wakeup scheduler) is reconciled: the
wakeup replay emits the steal-request/steal-miss events of the polls it
elides, stamped with their *virtual* timestamps, so the recorded steal
timeline is the same whether ``park_idle_pes`` is on or off (modulo the
``park``/``wake`` events themselves).  Export paths sort by timestamp.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

# -- event kinds --------------------------------------------------------
SPAWN = "spawn"                 # worker pushed a child task (task_out)
INJECT = "inject"               # host wrote a task into the IF block
ENQUEUE = "enqueue"             # routed task pushed into a PE queue
DISPATCH = "dispatch"           # PE popped a task from its own queue
EXEC_START = "exec-start"       # worker execution began
EXEC_END = "exec-end"           # worker execution finished
STEAL_REQUEST = "steal-req"     # thief launched a steal attempt
STEAL_HIT = "steal-hit"         # steal returned a task
STEAL_MISS = "steal-miss"       # steal returned a NACK
CONT_READY = "cont-ready"       # join counter hit zero: task readied
ARG_SEND = "arg-send"           # arg_out issued an argument message
ARG_DELIVER = "arg-deliver"     # argument message reached its P-Store
HOST_RESULT = "host-result"     # argument message reached the IF block
PSTORE_ALLOC = "pstore-alloc"   # pending entry allocated (cont_req)
PSTORE_FREE = "pstore-free"     # pending entry released (task readied)
MEM_STALL = "mem-stall"         # memory port stalled the datapath
PARK = "park"                   # idle PE parked (wakeup scheduler)
WAKE = "wake"                   # parked PE resumed
PROC_START = "proc-start"       # engine process registered
PROC_END = "proc-end"           # engine process finished
NET_MSG = "net-msg"             # crossbar traversal (arg or steal net)
FAULT = "fault"                 # injected fault fired (repro.resil)
RECOVERY = "recovery"           # a recovery mechanism absorbed a fault

#: All kinds, for validation and docs.
EVENT_KINDS = (
    SPAWN, INJECT, ENQUEUE, DISPATCH, EXEC_START, EXEC_END,
    STEAL_REQUEST, STEAL_HIT, STEAL_MISS, CONT_READY, ARG_SEND,
    ARG_DELIVER, HOST_RESULT, PSTORE_ALLOC, PSTORE_FREE, MEM_STALL,
    PARK, WAKE, PROC_START, PROC_END, NET_MSG, FAULT, RECOVERY,
)

#: ``pe`` value for events not tied to a PE (IF block, host, network).
NO_PE = -1

#: ``uid`` value for events not tied to a task record.
NO_TASK = -1


class TraceEvent:
    """One recorded event: a timestamp, a kind, and sparse context."""

    __slots__ = ("ts", "kind", "pe", "uid", "data")

    def __init__(self, ts: int, kind: str, pe: int, uid: int,
                 data: Optional[dict]) -> None:
        self.ts = ts
        self.kind = kind
        self.pe = pe
        self.uid = uid
        self.data = data

    def as_dict(self) -> dict:
        """JSON-safe representation (for the JSONL export)."""
        out = {"ts": self.ts, "kind": self.kind}
        if self.pe != NO_PE:
            out["pe"] = self.pe
        if self.uid != NO_TASK:
            out["task"] = self.uid
        if self.data:
            out.update(self.data)
        return out

    def __repr__(self) -> str:
        return (f"TraceEvent(@{self.ts} {self.kind} pe={self.pe} "
                f"task={self.uid})")


class TaskRecord:
    """Lifecycle timeline and dependency edges of one task.

    ``deps`` holds ``(dep_uid, offset)`` pairs: the task could not have
    become runnable before ``start(dep) + offset`` — for a spawned child
    the offset is the parent's progress at the spawn, for a join task it
    is each producer's progress at its argument send.  These measured
    offsets make the critical-path bound causal (never exceeding the
    achieved cycle count).
    """

    __slots__ = ("uid", "task_type", "origin", "parent", "deps",
                 "created", "enqueued", "dispatched",
                 "exec_start", "exec_end", "pe", "queue_pe",
                 "compute_cycles", "mem_stall_cycles", "stolen")

    def __init__(self, uid: int, task_type: str, origin: str,
                 parent: int, created: int) -> None:
        self.uid = uid
        self.task_type = task_type
        self.origin = origin          # inject | spawn | ready | host
        self.parent = parent
        self.deps: List[Tuple[int, int]] = []
        self.created = created
        self.enqueued = -1
        self.dispatched = -1
        self.exec_start = -1
        self.exec_end = -1
        self.pe = NO_PE
        self.queue_pe = NO_PE
        self.compute_cycles = 0
        self.mem_stall_cycles = 0
        self.stolen = False

    # -- derived latencies --------------------------------------------
    @property
    def queue_wait(self) -> Optional[int]:
        """Cycles between queue entry and leaving the queue."""
        if self.enqueued < 0 or self.dispatched < 0:
            return None
        return self.dispatched - self.enqueued

    @property
    def exec_cycles(self) -> Optional[int]:
        if self.exec_start < 0 or self.exec_end < 0:
            return None
        return self.exec_end - self.exec_start

    def as_dict(self) -> dict:
        return {
            "uid": self.uid,
            "task_type": self.task_type,
            "origin": self.origin,
            "parent": self.parent,
            "deps": list(self.deps),
            "created": self.created,
            "enqueued": self.enqueued,
            "dispatched": self.dispatched,
            "exec_start": self.exec_start,
            "exec_end": self.exec_end,
            "pe": self.pe,
            "compute_cycles": self.compute_cycles,
            "mem_stall_cycles": self.mem_stall_cycles,
            "stolen": self.stolen,
        }

    def __repr__(self) -> str:
        return (f"TaskRecord(#{self.uid} {self.task_type} {self.origin} "
                f"pe={self.pe} exec=[{self.exec_start},{self.exec_end}])")


class _PendingEntry:
    """In-flight P-Store entry: who allocated it and who fed it."""

    __slots__ = ("task_type", "creator", "creator_offset", "producers")

    def __init__(self, task_type: str, creator: int,
                 creator_offset: int) -> None:
        self.task_type = task_type
        self.creator = creator
        self.creator_offset = creator_offset
        self.producers: List[Tuple[int, int]] = []  # (uid, offset)


class EventSink:
    """Collects lifecycle events and task records for one run.

    Attach with :func:`attach_telemetry` *before* ``run``; read
    ``events`` / ``tasks`` afterwards (or hand the sink to the sampler,
    Chrome-trace, critical-path, or report modules).
    """

    def __init__(self, engine, num_pes: int = 0) -> None:
        self.engine = engine
        self.num_pes = num_pes
        #: Scheduling-policy name of the instrumented run (set by
        #: :func:`attach_telemetry`); labels reports and exports.
        self.policy: Optional[str] = None
        self.events: List[TraceEvent] = []
        self.tasks: List[TaskRecord] = []
        self._live: Dict[int, int] = {}       # id(task) -> uid
        self._running: Dict[int, int] = {}    # pe -> executing uid
        # Inline child uid -> the spawner's uid it interrupted.
        self._enclosing: Dict[int, int] = {}
        self._pending: Dict[Tuple[int, int], _PendingEntry] = {}
        self._inflight: Dict[Tuple[int, int, int], Tuple[int, int]] = {}

    # -- low-level ------------------------------------------------------
    def _emit(self, kind: str, pe: int = NO_PE, uid: int = NO_TASK,
              data: Optional[dict] = None, ts: Optional[int] = None) -> None:
        self.events.append(TraceEvent(
            self.engine.now if ts is None else ts, kind, pe, uid, data
        ))

    def _register(self, task, origin: str, parent: int = NO_TASK) -> int:
        uid = len(self.tasks)
        self.tasks.append(
            TaskRecord(uid, task.task_type, origin, parent, self.engine.now)
        )
        self._live[id(task)] = uid
        return uid

    def _progress(self, uid: int) -> int:
        """Cycles a running task has been executing for (its measured
        progress when it spawns or sends — the causal edge offset)."""
        if uid < 0:
            return 0
        start = self.tasks[uid].exec_start
        return self.engine.now - start if start >= 0 else 0

    def counts(self) -> Dict[str, int]:
        """Number of recorded events per kind."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def sorted_events(self) -> List[TraceEvent]:
        """Events in timestamp order (wakeup replays append virtual-time
        events late, so the raw list is not guaranteed sorted)."""
        return sorted(self.events, key=lambda e: e.ts)

    @property
    def end_cycle(self) -> int:
        """Last recorded timestamp (0 for an empty sink)."""
        return max((e.ts for e in self.events), default=0)

    # -- task creation --------------------------------------------------
    def task_injected(self, task) -> None:
        """Host wrote ``task`` into the IF block (also a queue push)."""
        uid = self._register(task, "inject")
        rec = self.tasks[uid]
        rec.enqueued = self.engine.now
        self._emit(INJECT, uid=uid, data={"type": task.task_type})

    def task_spawned(self, pe: int, task) -> None:
        """Executing worker on ``pe`` pushed a child task (task_out)."""
        parent = self._running.get(pe, NO_TASK)
        uid = self._register(task, "spawn", parent=parent)
        rec = self.tasks[uid]
        rec.enqueued = self.engine.now
        rec.queue_pe = pe
        if parent >= 0:
            rec.deps.append((parent, self._progress(parent)))
        self._emit(SPAWN, pe=pe, uid=uid, data={"type": task.task_type})

    def task_enqueued(self, pe: int, task) -> None:
        """A routed task (readied join, Lite round task) entered a PE
        queue over the argument/task network."""
        uid = self._live.get(id(task))
        if uid is None:
            uid = self._register(task, "host")
        rec = self.tasks[uid]
        rec.enqueued = self.engine.now
        rec.queue_pe = pe
        self._emit(ENQUEUE, pe=pe, uid=uid, data={"type": task.task_type})

    # -- queue exit / execution -----------------------------------------
    def task_dispatched(self, pe: int, task) -> None:
        """PE popped ``task`` from its own queue."""
        uid = self._live.get(id(task), NO_TASK)
        if uid >= 0:
            self.tasks[uid].dispatched = self.engine.now
        self._emit(DISPATCH, pe=pe, uid=uid)

    def exec_start(self, pe: int, task) -> int:
        uid = self._live.pop(id(task), None)
        if uid is None:
            uid = self._register(task, "unknown")
            del self._live[id(task)]
        rec = self.tasks[uid]
        rec.exec_start = self.engine.now
        rec.pe = pe
        running = self._running.get(pe)
        if running is not None:  # an inline child (spawn_overflow_inline)
            self._enclosing[uid] = running
        self._running[pe] = uid
        self._emit(EXEC_START, pe=pe, uid=uid,
                   data={"type": rec.task_type})
        return uid

    def exec_end(self, pe: int, uid: int, compute_cycles: int,
                 mem_stall_cycles: int) -> None:
        rec = self.tasks[uid]
        rec.exec_end = self.engine.now
        rec.compute_cycles = compute_cycles
        rec.mem_stall_cycles = mem_stall_cycles
        enclosing = self._enclosing.pop(uid, None)
        if enclosing is None:
            self._running.pop(pe, None)
        else:
            self._running[pe] = enclosing
        self._emit(EXEC_END, pe=pe, uid=uid,
                   data={"compute": compute_cycles,
                         "mem_stall": mem_stall_cycles})

    # -- work stealing ---------------------------------------------------
    # Steal events carry the scheduling-policy dimensions: ``hops`` is
    # the thief-to-victim crossbar distance (0 = tile-local) and
    # ``count`` the number of tasks granted (bulk policies return >1).
    # ``repro report`` aggregates these into the per-policy steal
    # summary; omitting them keeps older event streams parseable.
    def steal_request(self, pe: int, victim: int,
                      ts: Optional[int] = None,
                      hops: Optional[int] = None) -> None:
        data = {"victim": victim}
        if hops is not None:
            data["hops"] = hops
        self._emit(STEAL_REQUEST, pe=pe, data=data, ts=ts)

    def steal_result(self, pe: int, victim: int, task,
                     ts: Optional[int] = None,
                     hops: Optional[int] = None,
                     count: Optional[int] = None) -> None:
        data = {"victim": victim}
        if hops is not None:
            data["hops"] = hops
        if task is None:
            self._emit(STEAL_MISS, pe=pe, data=data, ts=ts)
            return
        if count is not None:
            data["count"] = count
        uid = self._live.get(id(task), NO_TASK)
        if uid >= 0:
            rec = self.tasks[uid]
            rec.dispatched = self.engine.now if ts is None else ts
            rec.stolen = True
        self._emit(STEAL_HIT, pe=pe, uid=uid, data=data, ts=ts)

    # -- P-Store / argument network --------------------------------------
    def pstore_alloc(self, tile: int, entry: int, task_type: str,
                     creator_pe: Optional[int]) -> None:
        creator = NO_TASK
        if creator_pe is not None:
            creator = self._running.get(creator_pe, NO_TASK)
        self._pending[(tile, entry)] = _PendingEntry(
            task_type, creator, self._progress(creator)
        )
        self._emit(PSTORE_ALLOC,
                   pe=creator_pe if creator_pe is not None else NO_PE,
                   uid=creator,
                   data={"tile": tile, "entry": entry, "type": task_type})

    def arg_sent(self, pe: int, cont) -> None:
        producer = self._running.get(pe, NO_TASK)
        self._inflight[(cont.owner, cont.entry, cont.slot)] = (
            producer, self._progress(producer)
        )
        self._emit(ARG_SEND, pe=pe, uid=producer,
                   data={"owner": cont.owner, "entry": cont.entry,
                         "slot": cont.slot})

    def arg_delivered(self, cont, ready_task, local: bool) -> None:
        producer, offset = self._inflight.pop(
            (cont.owner, cont.entry, cont.slot), (NO_TASK, 0)
        )
        key = (cont.owner, cont.entry)
        pending = self._pending.get(key)
        if pending is not None and producer >= 0:
            pending.producers.append((producer, offset))
        self._emit(ARG_DELIVER, uid=producer,
                   data={"owner": cont.owner, "entry": cont.entry,
                         "slot": cont.slot, "local": local})
        if ready_task is None:
            return
        # Join counter hit zero: the pending entry becomes a live task
        # whose causal deps are its creator and every producer.
        uid = self._register(
            ready_task, "ready",
            parent=pending.creator if pending is not None else NO_TASK,
        )
        rec = self.tasks[uid]
        if pending is not None:
            if pending.creator >= 0:
                rec.deps.append((pending.creator, pending.creator_offset))
            rec.deps.extend(pending.producers)
            del self._pending[key]
        self._emit(CONT_READY, uid=uid,
                   data={"tile": cont.owner, "type": rec.task_type})
        self._emit(PSTORE_FREE,
                   data={"tile": cont.owner, "entry": cont.entry})

    def host_result(self, cont) -> None:
        producer, _ = self._inflight.pop(
            (cont.owner, cont.entry, cont.slot), (NO_TASK, 0)
        )
        self._emit(HOST_RESULT, uid=producer,
                   data={"entry": cont.entry, "slot": cont.slot})

    # -- memory / parking / engine ---------------------------------------
    def mem_stall(self, pe: int, cycles: int) -> None:
        self._emit(MEM_STALL, pe=pe, uid=self._running.get(pe, NO_TASK),
                   data={"cycles": cycles})

    def parked(self, pe: int) -> None:
        self._emit(PARK, pe=pe)

    def woke(self, pe: int, resume_time: int, elided: int) -> None:
        self._emit(WAKE, pe=pe,
                   data={"resume": resume_time, "elided": elided})

    def proc_start(self, name: str) -> None:
        self._emit(PROC_START, data={"name": name})

    def proc_end(self, name: str) -> None:
        self._emit(PROC_END, data={"name": name})

    def net_msg(self, net: str, from_tile: int, to_tile: int) -> None:
        self._emit(NET_MSG,
                   data={"net": net, "src": from_tile, "dst": to_tile})

    # -- faults / recovery (repro.resil) ---------------------------------
    def fault(self, kind: str, pe: int = NO_PE,
              data: Optional[dict] = None) -> None:
        """An injected fault fired (``kind`` is a resil fault label)."""
        payload = {"fault": kind}
        if data:
            payload.update(data)
        self._emit(FAULT, pe=pe, data=payload)

    def recovery(self, kind: str, pe: int = NO_PE,
                 data: Optional[dict] = None) -> None:
        """A recovery mechanism absorbed a fault (or an exhaustion)."""
        payload = {"recovery": kind}
        if data:
            payload.update(data)
        self._emit(RECOVERY, pe=pe, data=payload)

    def pstore_rollback(self, tile: int, entry: int) -> None:
        """A pending entry was deallocated without readying (allocation
        backpressure rolled back a NACKed task attempt)."""
        self._pending.pop((tile, entry), None)
        self._emit(PSTORE_FREE,
                   data={"tile": tile, "entry": entry, "rollback": True})

    def __repr__(self) -> str:
        return (f"EventSink({len(self.events)} events, "
                f"{len(self.tasks)} tasks)")


def attach_telemetry(accel) -> EventSink:
    """Create an :class:`EventSink` and wire it into ``accel``.

    Must be called on a freshly built accelerator, before ``run``.
    Works for FlexArch, LiteArch, and the multicore software baseline
    (which reuses the FlexArch engine).
    """
    sink = EventSink(accel.engine, num_pes=len(accel.pes))
    sink.policy = accel.config.steal_policy
    accel.telemetry = sink
    accel.engine.telemetry = sink
    accel.net.telemetry = sink
    accel.interface.telemetry = sink
    for pstore in getattr(accel, "pstores", ()):
        pstore.telemetry = sink
    return sink
