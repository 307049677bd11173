"""CPU-accelerator interface block (Section III-E).

The IF block exposes a memory-mapped interface to the CPU: the host writes
tasks in and reads results out.  In FlexArch the IF participates in the
work-stealing network as a *victim only* — PEs steal injected root tasks
from it.  In LiteArch the IF pushes tasks to PEs directly over the
argument/task network using a static assignment.

The IF block's deque participates in the parked-PE wakeup scheme like any
TMU deque: the accelerator's park registry observes it, so an ``inject``
into an otherwise idle machine wakes the parked PEs (this is how every run
starts — all PEs park at tick 0 until the first root task arrives).

Open-system workloads (docs/WORKLOADS.md) may bound how many root tasks
sit in the stealable deque at once: ``configure_admission`` interposes
per-tenant FIFO admission queues in front of the deque, and whenever the
window has room the head job that arrived first is released.  Without
admission configured, ``submit`` degenerates to a direct ``inject`` —
byte-identical to the classic closed-system path.
"""

from __future__ import annotations

from collections import deque as _deque
from typing import Optional

from repro.core.deque import WorkStealingDeque
from repro.core.executor import HostResult
from repro.core.exceptions import ConfigError
from repro.core.task import Continuation, Task


class _TenantQueue:
    """One tenant's FIFO of submitted-but-not-yet-admitted jobs."""

    __slots__ = ("name", "weight", "entries")

    def __init__(self, name: str, weight: int) -> None:
        self.name = name
        self.weight = weight
        self.entries = _deque()  # of (Job, JobRecord)


class AdmissionControl:
    """Per-tenant admission queues + window in front of the IF deque.

    ``window`` bounds the number of root tasks concurrently visible in
    the stealable deque.  The pump runs at two deterministic points —
    after a ``submit`` and after a PE's root fetch drains the deque —
    and releases heads in global FIFO order with a QoS tiebreak (see
    :meth:`pump`).  All bookkeeping happens inside already-scheduled
    engine callbacks, so admission adds no events of its own.
    """

    def __init__(self, engine, interface: "InterfaceBlock", tenants,
                 window: int) -> None:
        if window < 1:
            raise ConfigError(f"admission window must be >= 1: {window}")
        self.engine = engine
        self.interface = interface
        self.window = window
        self.queues = [_TenantQueue(t.name, t.weight) for t in tenants]
        self._by_name = {q.name: q for q in self.queues}
        self.max_queued = 0

    @property
    def pending(self) -> int:
        """Jobs submitted but not yet admitted (diagnostics)."""
        return sum(len(q.entries) for q in self.queues)

    def enqueue(self, job, record) -> None:
        try:
            queue = self._by_name[job.tenant]
        except KeyError:
            raise ConfigError(
                f"job {job.job_id} names undeclared tenant "
                f"{job.tenant!r}"
            ) from None
        queue.entries.append((job, record))
        if self.pending > self.max_queued:
            self.max_queued = self.pending
        self.pump()

    def pump(self) -> None:
        """Release queue heads while the window has room.

        Each release takes the head with the earliest arrival; equal
        arrivals go to the heavier tenant, then to the lower job id, so
        untenanted workloads admit in pure arrival order.  On a full
        tie the first queue in declared tenant order wins.
        """
        while len(self.interface.deque) < self.window:
            best = best_key = None
            for queue in self.queues:
                if queue.entries:
                    job = queue.entries[0][0]
                    key = (job.time, -queue.weight, job.job_id)
                    if best is None or key < best_key:
                        best, best_key = queue, key
            if best is None:
                return
            job, record = best.entries.popleft()
            record.admitted = self.engine.now
            self.interface.inject(job.task)


class InterfaceBlock:
    """Memory-mapped CPU interface: task injection and result pickup."""

    #: Optional :class:`repro.obs.EventSink` (set by ``attach_telemetry``).
    telemetry = None

    def __init__(self) -> None:
        self.deque: WorkStealingDeque[Task] = WorkStealingDeque(name="if")
        self.host = HostResult()
        self.tasks_injected = 0
        self.results_received = 0
        #: Optional :class:`AdmissionControl` (open-system workloads with
        #: a bounded window; ``None`` = direct injection).
        self.admission: Optional[AdmissionControl] = None

    @property
    def pending(self) -> int:
        """Number of injected tasks not yet stolen by a PE."""
        return len(self.deque)

    @property
    def admission_pending(self) -> int:
        """Jobs held back in tenant admission queues (0 without one)."""
        return 0 if self.admission is None else self.admission.pending

    def configure_admission(self, engine, tenants, window: int) -> None:
        """Interpose per-tenant admission queues (docs/WORKLOADS.md)."""
        if self.admission is not None:
            raise ConfigError("admission control already configured")
        self.admission = AdmissionControl(engine, self, tenants, window)

    def submit(self, job, record, now: int) -> None:
        """Accept one arrived job from the host's injection process.

        ``record`` is the job's :class:`~repro.workload.JobRecord`; the
        injected timestamp was stamped by the caller, and admission (if
        configured) stamps ``admitted`` when the job reaches the
        stealable deque.
        """
        if self.admission is None:
            record.admitted = now
            self.inject(job.task)
        else:
            self.admission.enqueue(job, record)

    def inject(self, task: Task) -> None:
        """Queue a task from the CPU, available for PEs to steal."""
        if self.telemetry is not None:
            self.telemetry.task_injected(task)
        self.deque.push_tail(task)
        self.tasks_injected += 1

    def steal_head(self) -> Optional[Task]:
        """Work-stealing network entry point: hand over the oldest task."""
        task = self.deque.steal_head()
        if task is not None and self.admission is not None:
            # The fetch freed a window slot: release the next head(s) at
            # the same tick, inside the steal-service callback.
            self.admission.pump()
        return task

    def deliver(self, cont: Continuation, value) -> None:
        """Receive a result value destined for the host."""
        self.host.deliver(cont, value)
        self.results_received += 1
