"""Compact, content-addressed records of completed simulation jobs.

A :class:`RunRecord` is the cacheable projection of a
:class:`~repro.arch.result.RunResult`: timing, per-PE counters, memory
summary, and global counters — everything the experiment harnesses
consume — but no live objects (no telemetry sink, no host state), so it
serialises to JSON byte-for-byte reproducibly.  Its :attr:`digest` is
the content address used by the bit-exactness tests: two runs are "the
same" iff their record digests match.

A record read back from the result cache (:meth:`RunRecord.from_json`)
keeps its per-PE rows, most of its bytes, undecoded until something
reads ``pe_stats``.  fig6, fig7, fig9, table4, memstyles, open and
faults never do: they read a hit's timing, counters and job rows.
sweep, dse, policies, ablations, sizing and fig8 do, and the rows are
decoded once, on that first read; the record then equals one built
eagerly from the same JSON in every respect.

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
from typing import Any, Dict, List, Optional, Tuple

from repro.arch.result import RunResult

#: Record-format version, folded into every record digest.
#: v2: per-job lifecycle records (``jobs``) from the workload layer.
RECORD_VERSION = 2

#: Longest stored ``repr`` of the host value (kept for debugging; the
#: full value was already verified against the benchmark reference
#: before the record was built).
_VALUE_REPR_LIMIT = 96


#: The per-PE rows' key and the opening of their array in a record's
#: JSON; a cached record's rows are cut out of its bytes after it.
_ROWS_KEY = b'"pe_stats":['

#: The value that stands in for the cut-out rows while the rest of the
#: record is parsed: the string "\0", whose only JSON spelling this is.
_HOLE = b'"\\u0000"'

#: Parses the two pieces of a cut record.  Its ``raw_decode`` skips
#: ``json.loads``'s encoding detection and whitespace handling, which a
#: compact stored record does not need and a warm hit would pay twice.
_DECODER = json.JSONDecoder()


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_digest(canonical: bytes) -> str:
    """The record hash: sha256 of canonical JSON bytes, 32 hex digits."""
    return hashlib.sha256(canonical).hexdigest()[:32]


def record_checksum(record_dict: Dict[str, Any]) -> str:
    """The record hash of a record payload (its compact, key-sorted JSON).

    ``record_checksum(r.to_dict()) == r.digest``; the result cache
    stores it in every entry as ``checksum`` and re-verifies it on
    read, so silent byte damage *within* the record (which could still
    parse as valid JSON) is caught instead of served.
    """
    return canonical_digest(_canonical(record_dict).encode("utf-8"))


def _loads_compact(data: bytes) -> Any:
    """``json.loads(data)`` for compact UTF-8 JSON, which a stored
    record is; ``ValueError`` for anything else, say a value with a BOM
    or whitespace around it, which ``json.loads`` would accept."""
    text = data.decode("utf-8", "surrogatepass")
    value, end = _DECODER.raw_decode(text)
    if end != len(text):
        raise ValueError("extra data after the JSON value")
    return value


def _cut_rows(body: bytes) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """Split a record's JSON into the rest of the record, parsed with
    :data:`_HOLE` in place of its top-level ``pe_stats`` array, and that
    array's bytes; ``None`` when the cut does not fit ``body``.

    Every stored row is a flat object of ints (every ``PEStats`` field
    is an ``int``), so the first ``]`` after the rows' ``[`` closes their
    array.  Where it does not, because it sits inside a string or closes
    a nested list, what is left of a JSON body is not JSON.  Where the
    cut was some nested ``pe_stats`` array, the top-level ``pe_stats`` is
    not the placeholder, which nothing else in ``body`` may spell.  In
    these cases, and for a body that is not compact UTF-8 JSON, the
    caller parses ``body`` whole.
    """
    at = body.rfind(_ROWS_KEY)
    # The placeholder holds a backslash, which a stored record seldom
    # does, and one byte is found faster than the placeholder.
    if at < 0 or (b"\\" in body and _HOLE in body):
        return None
    start = at + len(_ROWS_KEY) - 1
    end = body.find(b"]", start) + 1
    if not end:
        return None
    try:
        rest = _loads_compact(body[:start] + _HOLE + body[end:])
    except ValueError:
        return None
    if not isinstance(rest, dict) or rest.get("pe_stats") != "\0":
        return None
    return rest, body[start:end]


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
    # The undecoded ``pe_stats`` array of a record read by from_json(),
    # until its first read (see _RowsOnFirstRead); ``None`` otherwise.
    # Not a field.
    _pe_rows = None

    def _decode_rows(self) -> List[Dict[str, Any]]:
        try:
            rows = _loads_compact(self._pe_rows)
        except ValueError as exc:
            raise ValueError(
                f"cached record for spec {self.spec_digest}: its pe_stats "
                f"rows are not JSON ({exc}); run `repro cache repair` to "
                f"quarantine the entry") from exc
        self.pe_stats = rows
        del self._pe_rows
        return rows

    def __getstate__(self) -> Dict[str, Any]:
        # A pickle or copy carries decoded rows, as an eager record's does.
        if self._pe_rows is not None:
            self._decode_rows()
        return self.__dict__

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
        return _canonical(self.to_dict())

    @property
    def digest(self) -> str:
        """Content digest of the record (bit-exactness witness)."""
        return record_checksum(self.to_dict())

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
    def from_json(cls, body: bytes) -> "RunRecord":
        """``from_dict(json.loads(body))``, but with the per-PE rows left
        undecoded until ``pe_stats`` is first read (see :func:`_cut_rows`).

        Rows that hash right but do not parse, which only a hand-made
        entry can hold, raise ``ValueError`` naming the spec digest on
        that first read; ``repro cache verify`` reports the entry and
        ``repro cache repair`` quarantines it.
        """
        cut = _cut_rows(body)
        if cut is None:
            return cls.from_dict(json.loads(body))
        rest, rows = cut
        record = cls.from_dict(rest)
        del record.pe_stats
        record._pe_rows = rows
        return record

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


class _RowsOnFirstRead:
    """``RunRecord.pe_stats`` where a record has none set: the rows of a
    record from :meth:`RunRecord.from_json`, decoded on first read.

    A descriptor without ``__set__``, so a record's own ``pe_stats``
    shadows it and it is reached only while the rows are bytes.  A
    ``__getattr__`` would do the same, but CPython then looks up every
    attribute of every record the slow way.
    """

    def __get__(self, record: Optional[RunRecord], owner=None) -> Any:
        return self if record is None else record._decode_rows()


# After @dataclass, which drops the class attribute of a field with a
# default factory.
RunRecord.pe_stats = _RowsOnFirstRead()


#: Failure classes a :class:`JobFailure` may carry.  ``crash`` = the
#: pool raised instead of returning the worker's outcome (host-caused;
#: a pool broken by a worker's death resubmits its jobs instead),
#: ``sim-error`` = the simulation itself raised — a deterministic
#: outcome of the spec that re-running cannot change.
FAILURE_KINDS = ("crash", "sim-error")


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
    #: Failure class (one of :data:`FAILURE_KINDS`) — what campaign
    #: classification and ``--resume`` dispatch on, instead of
    #: string-matching exception text.
    kind: str = "sim-error"

    ok = False

    def __str__(self) -> str:
        return f"{self.label}: {self.error_type}: {self.message}"

    @classmethod
    def from_exception(cls, spec_digest: str, label: str,
                       exc: BaseException,
                       kind: str = "sim-error") -> "JobFailure":
        """Build a failure from the exception that ended the job.

        The pool-side handler passes ``kind="crash"`` when the pool
        raised instead of returning an outcome; everything a worker
        caught *inside* the simulation is a deterministic ``sim-error``.
        """
        from repro.core.exceptions import ParallelXLError

        return cls(
            spec_digest=spec_digest,
            label=label,
            error_type=type(exc).__name__,
            message=str(exc),
            parallelxl=isinstance(exc, ParallelXLError),
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
