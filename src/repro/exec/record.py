"""Compact, content-addressed records of completed simulation jobs.

A :class:`RunRecord` is the cacheable projection of a
:class:`~repro.arch.result.RunResult`: timing, per-PE counters, memory
summary, and global counters — everything the experiment harnesses
consume — but no live objects (no telemetry sink, no host state), so it
serialises to JSON byte-for-byte reproducibly.  Its :attr:`digest` is
the content address used by the bit-exactness tests: two runs are "the
same" iff their record digests match.

A :class:`JobFailure` is the structured error a worker returns instead
of killing the batch: the exception type and message, plus whether the
error was a typed simulator diagnostic
(:class:`~repro.core.exceptions.ParallelXLError`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.arch.result import RunResult

#: Record-format version, folded into every record digest.
#: v2: per-job lifecycle records (``jobs``) from the workload layer.
RECORD_VERSION = 2

#: Longest stored ``repr`` of the host value (kept for debugging; the
#: full value was already verified against the benchmark reference
#: before the record was built).
_VALUE_REPR_LIMIT = 96


@dataclass
class RunRecord:
    """One verified simulation outcome, reduced to plain JSON types."""

    spec_digest: str
    label: str
    cycles: int
    clock_mhz: float
    value_repr: str = ""
    pe_stats: List[Dict[str, Any]] = field(default_factory=list)
    mem_summary: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, Any] = field(default_factory=dict)
    #: Per-job lifecycle records (arrival/injected/admitted/completed
    #: cycles + latency; docs/WORKLOADS.md).  Part of the digest, so the
    #: open-system latency report is covered by the bit-exactness tests.
    jobs: List[Dict[str, Any]] = field(default_factory=list)

    ok = True  # distinguishes records from JobFailures without isinstance

    # -- derived timing/statistics (mirror RunResult) -------------------
    @property
    def ns(self) -> float:
        """*Simulated* run length in nanoseconds (cycles / clock)."""
        return self.cycles * 1000.0 / self.clock_mhz

    @property
    def seconds(self) -> float:
        """*Simulated* seconds on the modelled machine — how long the
        accelerator would take, not how long the simulation took.  The
        host-side wall-clock cost of producing this record lives in the
        run ledger (``run_seconds``; :mod:`repro.obs.ledger`) and in
        :attr:`~repro.exec.runner.RunnerStats.run_seconds`."""
        return self.ns * 1e-9

    @property
    def tasks_executed(self) -> int:
        return sum(p["tasks_executed"] for p in self.pe_stats)

    @property
    def total_steals(self) -> int:
        return sum(p["steal_hits"] for p in self.pe_stats)

    @property
    def total_steal_attempts(self) -> int:
        return sum(p["steal_attempts"] for p in self.pe_stats)

    @property
    def remote_steals(self) -> int:
        return sum(p["steal_hits_remote"] for p in self.pe_stats)

    def utilization(self) -> float:
        if not self.pe_stats or not self.cycles:
            return 0.0
        busy = sum(p["busy_cycles"] for p in self.pe_stats)
        return busy / (self.cycles * len(self.pe_stats))

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": RECORD_VERSION,
            "spec_digest": self.spec_digest,
            "label": self.label,
            "cycles": self.cycles,
            "clock_mhz": self.clock_mhz,
            "value_repr": self.value_repr,
            "pe_stats": self.pe_stats,
            "mem_summary": self.mem_summary,
            "counters": self.counters,
            "jobs": self.jobs,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def digest(self) -> str:
        """Content digest of the record (bit-exactness witness)."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()[:32]

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        return cls(
            spec_digest=payload["spec_digest"],
            label=payload["label"],
            cycles=payload["cycles"],
            clock_mhz=payload["clock_mhz"],
            value_repr=payload.get("value_repr", ""),
            pe_stats=payload.get("pe_stats", []),
            mem_summary=payload.get("mem_summary", {}),
            counters=payload.get("counters", {}),
            jobs=payload.get("jobs", []),
        )

    @classmethod
    def from_result(cls, spec_digest: str, result: RunResult) -> "RunRecord":
        """Distill a full :class:`RunResult` into a record."""
        value_repr = repr(result.value)
        if len(value_repr) > _VALUE_REPR_LIMIT:
            value_repr = value_repr[:_VALUE_REPR_LIMIT] + "..."
        return cls(
            spec_digest=spec_digest,
            label=result.label,
            cycles=result.cycles,
            clock_mhz=result.clock_mhz,
            value_repr=value_repr,
            pe_stats=[dataclasses.asdict(p) for p in result.pe_stats],
            mem_summary=dict(result.mem_summary),
            counters=dict(result.counters),
            jobs=[dict(j) for j in (result.jobs or [])],
        )


#: Failure classes a :class:`JobFailure` may carry.  ``timeout`` = the
#: per-job deadline fired (host-imposed; the job might finish with more
#: time), ``crash`` = the pool raised instead of returning the worker's
#: outcome (host-caused; a pool broken by a worker's death resubmits
#: its jobs instead), ``sim-error`` = the simulation itself raised — a
#: deterministic outcome of the spec that re-running cannot change.
FAILURE_KINDS = ("timeout", "crash", "sim-error")


@dataclass
class JobFailure:
    """Structured record of a job that raised instead of completing."""

    spec_digest: str
    label: str
    error_type: str
    message: str
    #: True when the error was a typed simulator diagnostic
    #: (DeadlockError, PStoreFullError...), i.e. an *expected* failure
    #: mode rather than a harness bug.
    parallelxl: bool = False
    #: True when the job was killed by the per-job timeout.
    timed_out: bool = False
    #: Failure class (one of :data:`FAILURE_KINDS`) — what retry rules
    #: and campaign classification dispatch on, instead of
    #: string-matching exception text.
    kind: str = "sim-error"

    ok = False

    def __str__(self) -> str:
        return f"{self.label}: {self.error_type}: {self.message}"

    @classmethod
    def from_exception(cls, spec_digest: str, label: str,
                       exc: BaseException,
                       timed_out: bool = False,
                       kind: Optional[str] = None) -> "JobFailure":
        """Build a failure; ``kind`` defaults from how the error arose.

        ``timed_out=True`` means the deadline fired (``timeout``); an
        explicit ``kind="crash"`` is passed by the pool-side handler
        when the pool raised instead of returning an outcome; everything
        a worker caught *inside* the simulation is a deterministic
        ``sim-error``.
        """
        from repro.core.exceptions import ParallelXLError

        if kind is None:
            kind = "timeout" if timed_out else "sim-error"
        return cls(
            spec_digest=spec_digest,
            label=label,
            error_type=type(exc).__name__,
            message=str(exc),
            parallelxl=isinstance(exc, ParallelXLError),
            timed_out=timed_out,
            kind=kind,
        )

    # -- serialisation (campaign manifests) -----------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec_digest": self.spec_digest,
            "label": self.label,
            "error_type": self.error_type,
            "message": self.message,
            "parallelxl": self.parallelxl,
            "timed_out": self.timed_out,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobFailure":
        return cls(
            spec_digest=payload["spec_digest"],
            label=payload["label"],
            error_type=payload["error_type"],
            message=payload["message"],
            parallelxl=bool(payload.get("parallelxl", False)),
            timed_out=bool(payload.get("timed_out", False)),
            kind=payload.get("kind", "sim-error"),
        )


class JobFailedError(RuntimeError):
    """Raised by strict batch helpers when a job failed.

    Carries the underlying :class:`JobFailure` so callers can still
    inspect the structured error.
    """

    def __init__(self, failure: JobFailure) -> None:
        super().__init__(str(failure))
        self.failure = failure


def check_outcomes(outcomes: List[Any]) -> List[Optional[RunRecord]]:
    """Raise :class:`JobFailedError` on the first failure in a batch."""
    for outcome in outcomes:
        if outcome is not None and not outcome.ok:
            raise JobFailedError(outcome)
    return outcomes
