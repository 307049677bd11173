"""Host-side robustness: retry policy and campaign checkpointing.

The simulator itself is deterministic, but the *host* running a
campaign is not: workers get OOM-killed, pools break, cache files get
truncated by a crashed writer, and a multi-hour sweep dies to a SIGKILL
three jobs from the end.  This module gives :class:`~repro.exec.runner.
JobRunner` the two pieces that make campaigns dependable
(docs/EXECUTION.md, "Failure handling & recovery"):

* :class:`RetryPolicy` — bounded re-attempts with exponential backoff
  and *deterministic jitter* (a pure function of ``(spec digest,
  attempt)``, so two hosts replaying the same campaign back off
  identically).  Classification is by :attr:`~repro.exec.record.
  JobFailure.kind`: the :data:`TRANSIENT_KINDS` are retried — timeouts
  with a raised deadline, crashes on a fresh pool — and deterministic
  simulator exceptions (``sim-error``) never are: re-running a pure
  function on the same input cannot change the answer.  The policy's
  only settings are the attempt budget (``--retries``) and the sleep
  function (a fake clock in tests); the backoff, jitter and deadline
  scale are the module constants below.
* :class:`CampaignManifest` — an append-only JSONL checkpoint of one
  batch's completed outcomes, keyed by a campaign id derived from the
  batch's spec digests and the code salt.  ``repro <cmd> --resume``
  loads it before simulating, so a SIGKILLed campaign re-simulates
  zero completed jobs on the next run — even with ``--no-cache``.
  Writes use the run ledger's idiom (single ``write`` on an
  ``O_APPEND`` stream), so a kill mid-append leaves at most one
  partial line, which the loader skips.  A record's line carries its
  checksum (the record digest), as a result-cache entry does, so a
  damaged line that still parses re-simulates instead of being served.

A :class:`~repro.exec.runner.JobRunner` given no ``retry`` policy runs
under ``RetryPolicy(max_attempts=1)``: its pools are still supervised,
but no job's own failure is re-run.  Checkpointing happens only when
the runner is given a ``manifest_dir``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Union

from repro.exec.record import JobFailure, RunRecord, record_checksum

#: Manifest directory name under the cache root.
MANIFEST_DIRNAME = "manifests"

#: Manifest entry-format version, recorded on every line.
#: v2: a record's line carries its ``checksum``.
MANIFEST_VERSION = 2

#: Failure kinds a retry policy re-runs (host-caused).
TRANSIENT_KINDS = ("timeout", "crash")

#: Backoff before a job's first retry, in seconds; each further retry
#: waits ``BACKOFF_FACTOR`` times longer.
BACKOFF_SECONDS = 0.05
BACKOFF_FACTOR = 2.0

#: Each backoff is scaled by a deterministic factor in
#: ``[1 - JITTER, 1 + JITTER)``.
JITTER = 0.25

#: Each timeout retry's deadline is this many times the last one's.
TIMEOUT_SCALE = 2.0


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

    ``max_attempts`` counts *total* attempts per job (1 = never retry);
    only a failure of one of the :data:`TRANSIENT_KINDS` is retried.
    The backoff before attempt ``k``'s retry is
    ``BACKOFF_SECONDS * BACKOFF_FACTOR**k``, scaled by a deterministic
    jitter factor in ``[1 - JITTER, 1 + JITTER)`` drawn from
    ``(digest, attempt)``.  Each timeout retry's deadline is
    ``TIMEOUT_SCALE`` times the last, so a job that was genuinely slow
    (not hung) gets room to finish.  ``sleep`` is injectable so tests
    run with a fake clock.
    """

    max_attempts: int = 3
    sleep: Callable[[float], None] = time.sleep

    def should_retry(self, failure: JobFailure, attempt: int) -> bool:
        """Whether attempt index ``attempt`` (0-based) gets a retry."""
        return (attempt + 1 < self.max_attempts
                and failure.kind in TRANSIENT_KINDS)

    def delay(self, digest: str, attempt: int) -> float:
        """Backoff before re-running ``digest`` after attempt ``attempt``."""
        roll = unit_roll(0, "retry-jitter", digest, attempt)
        return (BACKOFF_SECONDS * BACKOFF_FACTOR ** attempt
                * (1.0 - JITTER + 2.0 * JITTER * roll))

    def timeout_for(self, base: Optional[float],
                    attempt: int) -> Optional[float]:
        """Per-job deadline for attempt ``attempt`` (raised on retries)."""
        if base is None or attempt == 0:
            return base
        return base * TIMEOUT_SCALE ** attempt


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
    may well succeed.  A record counts only if it still hashes to the
    checksum its line carries and names the spec digest it is filed
    under.
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

        Unparseable lines (a SIGKILL mid-append), entries from a
        different code salt, records that no longer hash to their
        line's checksum (damage that still parses) and outcomes filed
        under another spec's digest are skipped silently — the job
        simply re-simulates.
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
                    record_dict = entry["record"]
                    if record_checksum(record_dict) != entry["checksum"]:
                        continue    # damaged: re-simulate
                    outcome = RunRecord.from_dict(record_dict)
                else:
                    outcome = JobFailure.from_dict(entry["failure"])
                    if outcome.kind != "sim-error":
                        continue    # transient: worth re-running
            except (KeyError, TypeError, ValueError):
                continue
            if outcome.spec_digest == digest:
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
            record_dict = outcome.to_dict()
            entry["record"] = record_dict
            entry["checksum"] = record_checksum(record_dict)
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
