"""Host-side robustness: retry policy and campaign checkpointing.

The simulator itself is deterministic, but the *host* running a
campaign is not: workers get OOM-killed, pools break, cache files get
truncated by a crashed writer, and a multi-hour sweep dies to a SIGKILL
three jobs from the end.  This module gives :class:`~repro.exec.runner.
JobRunner` the two pieces that make campaigns dependable
(docs/EXECUTION.md, "Failure handling & recovery"):

* :class:`RetryPolicy` — bounded re-attempts with exponential backoff
  and *deterministic seeded jitter* (a pure function of ``(seed, spec
  digest, attempt)``, so two hosts replaying the same campaign back off
  identically).  Classification is by :attr:`~repro.exec.record.
  JobFailure.kind`: timeouts are retried with a raised deadline,
  crashes are retried on a fresh pool, and deterministic simulator
  exceptions (``sim-error``) are never retried — re-running a pure
  function on the same input cannot change the answer.
* :class:`CampaignManifest` — an append-only JSONL checkpoint of one
  batch's completed outcomes, keyed by a campaign id derived from the
  batch's spec digests and the code salt.  ``repro <cmd> --resume``
  loads it before simulating, so a SIGKILLed campaign re-simulates
  zero completed jobs on the next run — even with ``--no-cache``.
  Writes use the run ledger's idiom (single ``write`` on an
  ``O_APPEND`` stream), so a kill mid-append leaves at most one
  partial line, which the loader skips.

A :class:`~repro.exec.runner.JobRunner` given no ``retry`` policy runs
under ``RetryPolicy(max_attempts=1)``: its pools are still supervised,
but no job's own failure is re-run.  Checkpointing happens only when
the runner is given a ``manifest_dir``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.exec.record import JobFailure, RunRecord

#: Manifest directory name under the cache root.
MANIFEST_DIRNAME = "manifests"

#: Manifest entry-format version, recorded on every line.
MANIFEST_VERSION = 1

#: Failure kinds a default policy considers transient (host-caused).
TRANSIENT_KINDS = ("timeout", "crash")


def unit_roll(*parts: object) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from hashed parts.

    Shared by the retry jitter and the chaos plan: decisions are pure
    functions of their inputs, never of host entropy, so a replayed
    campaign makes identical choices.
    """
    digest = hashlib.sha256(
        "|".join(str(p) for p in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass
class RetryPolicy:
    """Bounded, failure-class-aware retry rules for one runner.

    ``max_attempts`` counts *total* attempts per job (1 = never retry).
    The backoff before attempt ``k``'s retry is
    ``backoff_seconds * backoff_factor**k``, scaled by a deterministic
    jitter factor in ``[1 - jitter, 1 + jitter)`` drawn from
    ``(seed, digest, attempt)``.  ``timeout_scale`` raises the per-job
    deadline on each timeout retry, so a job that was genuinely slow
    (not hung) gets room to finish.  ``max_pool_restarts`` bounds the
    pool rebuilds of one parallel batch; past it, the remaining jobs
    run serially in-process.  ``sleep`` is injectable so tests run with
    a fake clock.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    timeout_scale: float = 2.0
    retry_timeouts: bool = True
    retry_crashes: bool = True
    retry_sim_errors: bool = False
    max_pool_restarts: int = 2
    sleep: Callable[[float], None] = time.sleep

    def retryable(self, failure: JobFailure) -> bool:
        """Whether this *class* of failure may ever be retried."""
        kind = getattr(failure, "kind", None)
        return {
            "timeout": self.retry_timeouts,
            "crash": self.retry_crashes,
            "sim-error": self.retry_sim_errors,
        }.get(kind, False)

    def should_retry(self, failure: JobFailure, attempt: int) -> bool:
        """Whether attempt index ``attempt`` (0-based) gets a retry."""
        return attempt + 1 < self.max_attempts and self.retryable(failure)

    def delay(self, digest: str, attempt: int) -> float:
        """Backoff before re-running ``digest`` after attempt ``attempt``."""
        base = self.backoff_seconds * self.backoff_factor ** attempt
        if not self.jitter:
            return base
        roll = unit_roll(self.seed, "retry-jitter", digest, attempt)
        return base * (1.0 - self.jitter + 2.0 * self.jitter * roll)

    def timeout_for(self, base: Optional[float],
                    attempt: int) -> Optional[float]:
        """Per-job deadline for attempt ``attempt`` (raised on retries)."""
        if base is None or attempt == 0:
            return base
        return base * self.timeout_scale ** attempt


# ----------------------------------------------------------------------
# Campaign checkpointing.

def default_manifest_dir(cache_root: Union[str, Path, None] = None) -> Path:
    """``<cache-root>/manifests`` (the root defaults like the cache's)."""
    if cache_root is None:
        from repro.exec.cache import default_cache_dir

        cache_root = default_cache_dir()
    return Path(cache_root) / MANIFEST_DIRNAME


def campaign_id(digests: Iterable[str]) -> str:
    """Stable id of one batch: code salt + sorted spec digests.

    Folding the code salt in means a manifest written by older simulator
    code can never satisfy a resume under newer code — exactly the
    result cache's invalidation rule.
    """
    from repro.exec.cache import code_salt

    hasher = hashlib.sha256(code_salt().encode("utf-8"))
    for digest in sorted(digests):
        hasher.update(b"\0")
        hasher.update(digest.encode("utf-8"))
    return hasher.hexdigest()[:32]


class CampaignManifest:
    """Append-only JSONL checkpoint of one batch's completed jobs.

    One file per campaign id under the manifest directory.  Every
    completed outcome (simulated, cached, or failed) is appended as a
    self-contained line; on load, successful records and *deterministic*
    failures (``kind == "sim-error"``) count as completed — transient
    timeouts and crashes are re-run on resume, since a healthier host
    may well succeed.
    """

    def __init__(self, root: Union[str, Path],
                 campaign: str) -> None:
        self.root = Path(root)
        self.campaign = campaign
        self.path = self.root / f"{campaign}.jsonl"
        self._completed: Dict[str, object] = {}
        self.appended = 0
        self.dropped_appends = 0

    @classmethod
    def for_specs(cls, root: Union[str, Path],
                  specs: Iterable) -> "CampaignManifest":
        """Manifest for the batch ``specs``, preloaded from disk."""
        manifest = cls(root, campaign_id(s.digest for s in specs))
        manifest.load()
        return manifest

    # -- reading --------------------------------------------------------
    def load(self) -> int:
        """(Re)load completed outcomes; returns how many were usable.

        Unparseable lines (a SIGKILL mid-append) and entries from a
        different code salt are skipped silently — the job simply
        re-simulates.
        """
        from repro.exec.cache import code_salt

        self._completed = {}
        try:
            raw = self.path.read_bytes()
        except OSError:
            return 0
        # Decode permissively: our own appends are ASCII, so any
        # non-UTF-8 byte is external corruption — it must poison only
        # its own line (json.loads rejects the replacement char), not
        # crash --resume or drop the parseable lines around it.
        lines = raw.decode("utf-8", errors="replace").splitlines()
        salt = code_salt()
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if not isinstance(entry, dict) or entry.get("salt") != salt:
                continue
            digest = entry.get("digest")
            if not digest:
                continue
            try:
                if entry.get("ok"):
                    outcome = RunRecord.from_dict(entry["record"])
                else:
                    failure = JobFailure.from_dict(entry["failure"])
                    if failure.kind != "sim-error":
                        continue    # transient: worth re-running
                    outcome = failure
            except (KeyError, TypeError, ValueError):
                continue
            self._completed[digest] = outcome
        return len(self._completed)

    def completed(self, digest: str):
        """The checkpointed outcome for ``digest``, or ``None``."""
        return self._completed.get(digest)

    def __len__(self) -> int:
        return len(self._completed)

    # -- writing --------------------------------------------------------
    def record(self, spec, outcome) -> None:
        """Checkpoint one completed outcome (best-effort, atomic line).

        A failed append (disk full, transient I/O error) only costs a
        re-simulation on resume, so it is counted, never raised.
        """
        from repro.exec.cache import code_salt

        entry: Dict[str, object] = {
            "v": MANIFEST_VERSION,
            "salt": code_salt(),
            "digest": spec.digest,
            "ok": bool(outcome.ok),
        }
        if outcome.ok:
            entry["record"] = outcome.to_dict()
        else:
            entry["failure"] = outcome.to_dict()
        line = json.dumps(entry, sort_keys=True,
                          separators=(",", ":")) + "\n"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # Ledger idiom: one write on an O_APPEND stream, so
            # concurrent appends interleave whole lines and a kill
            # mid-write leaves at most one partial (skipped) line.
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
            self.appended += 1
        except OSError:
            self.dropped_appends += 1
            return
        self._completed[spec.digest] = outcome

    def __repr__(self) -> str:
        return (f"CampaignManifest({str(self.path)!r}: "
                f"{len(self._completed)} completed)")


def list_manifests(root: Union[str, Path]) -> List[Path]:
    """Manifest files under ``root``, oldest first (for maintenance)."""
    root = Path(root)
    try:
        return sorted(root.glob("*.jsonl"),
                      key=lambda p: (p.stat().st_mtime, p.name))
    except OSError:
        return []
