"""Workload sources: *what* a run executes and *when* it arrives.

The original run lifecycle was closed-system: ``Accelerator.run`` took a
fixed root-task list, injected everything at the start, and simulated to
drain.  This package generalises the lifecycle into a
:class:`WorkloadSource` — a deterministic description of an *arrival
stream*: which jobs exist, which :class:`Tenant` each belongs to, and at
which host-side cycle each arrives at the CPU-accelerator interface.
A closed run is simply the degenerate source whose arrivals all land at
t=0 (``tests/workload/test_closed_equivalence.py`` pins that this path
reproduces the golden closed-system results bit-exactly).

Determinism contract (the same one :mod:`repro.resil` follows): a
source's arrival stream is a pure function of its own seed/trace —
stochastic sources draw from a dedicated :class:`~repro.core.lfsr.LFSR16`
stream that is isolated from the per-PE scheduling LFSRs and from the
fault-plan stream.  Arrivals are therefore computed *before* the engine
starts, which is what makes open-system runs bit-identical across
park modes and serial-vs-parallel runners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.exceptions import ConfigError
from repro.core.task import Task

#: Tenant name used when a workload does not declare tenants.
DEFAULT_TENANT_NAME = "default"


@dataclass(frozen=True)
class Tenant:
    """One traffic class sharing the accelerator.

    ``weight`` is the QoS share used by admission control (higher =
    preferred among equal arrivals) and by stochastic sources when mixing
    arrivals.  ``params`` optionally overrides benchmark workload
    parameters for this tenant's jobs (e.g. a different ``n``), stored
    as a sorted item tuple so tenants stay hashable.
    """

    name: str = DEFAULT_TENANT_NAME
    weight: int = 1
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.weight < 1:
            raise ConfigError(
                f"tenant {self.name!r} weight must be >= 1: {self.weight}"
            )

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe canonical form (workload-spec digest input)."""
        return {
            "name": self.name,
            "weight": self.weight,
            "params": {k: v for k, v in self.params},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Tenant":
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ConfigError(
                f"tenant params must be a mapping, got {type(params).__name__}"
            )
        return cls(
            name=str(payload.get("name", DEFAULT_TENANT_NAME)),
            weight=int(payload.get("weight", 1)),
            params=tuple(sorted((str(k), v) for k, v in params.items())),
        )


#: The implicit single tenant of closed runs and untenanted workloads.
DEFAULT_TENANT = Tenant()


@dataclass(frozen=True)
class Arrival:
    """One job's appearance in the arrival stream (host-side time)."""

    job_id: int
    time: int
    tenant: str = DEFAULT_TENANT_NAME


@dataclass(frozen=True)
class Job:
    """An arrival bound to its root task (what the engine executes).

    ``task.k`` must be a host continuation whose slot uniquely
    identifies the job — :func:`bind_jobs` re-slots each root with its
    ``job_id`` so per-job results and completion times can be matched
    up at delivery.
    """

    job_id: int
    time: int
    tenant: str
    task: Task


@dataclass
class JobRecord:
    """Per-job lifecycle timestamps, all in accelerator cycles.

    ``arrival`` is when the job reached the host driver; ``injected``
    when the host's serialized memory-mapped write made it visible in
    the IF block; ``admitted`` when admission control released it into
    the stealable deque (equal to ``injected`` without admission
    queues); ``completed`` when its result value reached the host slot.
    Unset stages are ``-1``.
    """

    job_id: int
    tenant: str
    arrival: int
    injected: int = -1
    admitted: int = -1
    completed: int = -1

    @property
    def latency(self) -> Optional[int]:
        """Arrival-to-completion latency; ``None`` until completed.

        Excludes the per-job ``offload_read_cycles`` readback, which is
        charged to the run's makespan instead (docs/WORKLOADS.md).
        """
        if self.completed < 0:
            return None
        return self.completed - self.arrival

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job": self.job_id,
            "tenant": self.tenant,
            "arrival": self.arrival,
            "injected": self.injected,
            "admitted": self.admitted,
            "completed": self.completed,
            "latency": self.latency,
        }


def _validate_tenants(tenants: Tuple[Tenant, ...]) -> Tuple[Tenant, ...]:
    if not tenants:
        raise ConfigError("a workload needs at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate tenant names: {names}")
    return tenants


class WorkloadSource:
    """Deterministic description of an arrival stream.

    Subclasses implement :meth:`arrivals` (the full stream, computed up
    front) and :meth:`describe` (the JSON-safe canonical spec that
    round-trips through :func:`~repro.workload.make_source` and feeds
    the :class:`~repro.exec.spec.JobSpec` content digest).
    """

    #: Registry key (``describe()["kind"]``).
    kind = "abstract"

    def __init__(self, tenants: Tuple[Tenant, ...] = (DEFAULT_TENANT,),
                 admit_window: Optional[int] = None) -> None:
        self.tenants = _validate_tenants(tuple(tenants))
        if admit_window is not None and admit_window < 1:
            raise ConfigError(
                f"admission window must be >= 1 (or None): {admit_window}"
            )
        self.admit_window = admit_window

    def tenant(self, name: str) -> Tenant:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise ConfigError(
            f"unknown tenant {name!r} "
            f"(declared: {[t.name for t in self.tenants]})"
        )

    def arrivals(self) -> Tuple[Arrival, ...]:
        """The complete arrival stream, ordered by ``(time, job_id)``."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """JSON-safe canonical spec (see :func:`make_source`)."""
        raise NotImplementedError

    def _describe_common(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "tenants": [t.as_dict() for t in self.tenants],
            "window": self.admit_window,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()!r})"


def bind_jobs(source: WorkloadSource, root_factory) -> Tuple[Job, ...]:
    """Materialise a source into engine-ready :class:`Job` objects.

    ``root_factory(arrival)`` builds the root task for one arrival (a
    fresh benchmark root, usually).  The root's host continuation is
    re-slotted with the job id so each job's result lands in its own
    :class:`~repro.core.executor.HostResult` slot.
    """
    jobs = []
    for arrival in source.arrivals():
        task = root_factory(arrival)
        if not task.k.is_host:
            raise ConfigError(
                f"job {arrival.job_id} root task must complete to the "
                f"host, got {task.k!r}"
            )
        task = Task(task.task_type, task.k.with_slot(arrival.job_id),
                    task.args)
        jobs.append(Job(job_id=arrival.job_id, time=arrival.time,
                        tenant=arrival.tenant, task=task))
    return tuple(jobs)
