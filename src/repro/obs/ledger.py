"""Persistent append-only ledger of every executed simulation job.

The result cache answers "have I simulated this spec?"; the ledger
answers the *measurement* questions a calibrated-model workflow needs
(ROADMAP items 1 and 3): where does wall-clock go, which jobs are slow,
is the cache actually getting warmer across campaigns, and on what host
/ code version was each number measured.

Layout::

    .repro-cache/
        ledger/
            runs.jsonl      one JSON object per completed job, appended

Each line is self-contained: wall-clock timestamp, the job's spec
digest and label, whether it was served from cache, per-job timing
split (queue-wait / run / cache-lookup seconds), the simulated cycle
count, the :func:`~repro.exec.cache.code_salt` of the simulator that
ran it, a host fingerprint, and a random per-:class:`RunLedger` session
id that groups one campaign's jobs together.  Appends are single
``write`` calls on an ``O_APPEND`` descriptor, so concurrent workers
interleave whole lines; unreadable lines are skipped on read.

The ledger is observability, not state: deleting it loses history but
breaks nothing, and it is never read on the simulation path.  That is
why appends are *best-effort*: a transient I/O error (or an injected
:class:`~repro.exec.chaos.ChaosError` when a chaos plan is wired in)
drops the line and bumps :attr:`RunLedger.dropped` instead of failing
the job that was being recorded.  Query it with ``repro ledger``
(recent runs, slowest jobs, cache-hit trend).
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Ledger directory name under the cache root.
LEDGER_DIRNAME = "ledger"

#: Ledger file name (one JSONL stream per cache root).
LEDGER_FILENAME = "runs.jsonl"

#: Entry-format version, recorded on every line.
LEDGER_VERSION = 1

_fingerprint: Optional[Dict[str, object]] = None


def host_fingerprint() -> Dict[str, object]:
    """Stable description of the measuring host (computed once)."""
    global _fingerprint
    if _fingerprint is None:
        _fingerprint = {
            "host": socket.gethostname(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count() or 1,
        }
    return _fingerprint


def default_ledger_dir(cache_root: Union[str, Path, None] = None) -> Path:
    """``<cache-root>/ledger`` (the root defaults like the cache's)."""
    if cache_root is None:
        from repro.exec.cache import default_cache_dir

        cache_root = default_cache_dir()
    return Path(cache_root) / LEDGER_DIRNAME


class RunLedger:
    """Append-only JSONL ledger rooted at a cache directory."""

    def __init__(self, root: Union[str, Path, None] = None,
                 chaos=None) -> None:
        self.root = Path(root) if root is not None else default_ledger_dir()
        self.path = self.root / LEDGER_FILENAME
        #: Optional :class:`~repro.exec.chaos.ChaosPlan` hooked into
        #: appends (fault-injection tests only).
        self.chaos = chaos
        #: Groups the jobs of one runner/campaign in trend queries.
        self.session = uuid.uuid4().hex[:12]
        self.appended = 0
        self.dropped = 0    # appends lost to transient I/O errors

    # -- writing --------------------------------------------------------
    def append(self, entry: Dict[str, object]) -> None:
        """Write one entry (session/host/version added here).

        Best-effort: the ledger is observability, so a transient I/O
        failure drops the line (counted in :attr:`dropped`) rather than
        failing the job being recorded.
        """
        payload = {
            "v": LEDGER_VERSION,
            "session": self.session,
            "host": host_fingerprint(),
            **entry,
        }
        line = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
        try:
            if self.chaos is not None:
                self.chaos.ledger_append()
            self.root.mkdir(parents=True, exist_ok=True)
            # One write on an O_APPEND descriptor: concurrent pool
            # workers and parallel campaigns interleave whole lines,
            # never bytes.
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
        except OSError:
            self.dropped += 1
            return
        self.appended += 1

    def record_job(self, spec, outcome, *, source: str,
                   run_seconds: float = 0.0, queue_seconds: float = 0.0,
                   lookup_seconds: float = 0.0, jobs: int = 1) -> None:
        """Ledger one :class:`~repro.exec.runner.JobRunner` completion
        from ``source`` (``"simulated"``, ``"cache"`` or ``"resumed"``)."""
        from repro.exec.cache import code_salt

        entry: Dict[str, object] = {
            "ts": round(time.time(), 3),
            "digest": spec.digest,
            "label": spec.label,
            "benchmark": spec.benchmark,
            "engine": spec.engine,
            "num_pes": spec.num_pes,
            "quick": spec.quick,
            "cached": source == "cache",
            "ok": bool(outcome.ok),
            "run_seconds": round(run_seconds, 6),
            "queue_seconds": round(queue_seconds, 6),
            "lookup_seconds": round(lookup_seconds, 6),
            "jobs": jobs,
            "salt": code_salt(),
        }
        if source == "resumed":
            # Served from a campaign manifest, not simulated now.
            entry["resumed"] = True
        if outcome.ok:
            entry["cycles"] = outcome.cycles
        else:
            entry["error"] = outcome.error_type
            entry["kind"] = getattr(outcome, "kind", "sim-error")
        self.append(entry)

    # -- reading --------------------------------------------------------
    def entries(self, limit: Optional[int] = None) -> List[Dict]:
        """All readable entries in file order (corrupt lines skipped);
        ``limit`` keeps only the newest N (none for 0)."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return []
        out: List[Dict] = []
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and "digest" in entry:
                out.append(entry)
        if limit is not None:
            out = out[max(len(out) - limit, 0):]
        return out

    def estimate_seconds(self, window: int = 200) -> Optional[float]:
        """Mean ``run_seconds`` over the last ``window`` *executed*
        entries — the prior the progress printer uses for its first ETA
        before this batch has produced timings of its own.
        Manifest-resumed completions are excluded: they did not
        simulate at all."""
        timed = [e["run_seconds"] for e in self.entries()
                 if not e.get("cached") and not e.get("resumed")
                 and e.get("run_seconds")]
        timed = timed[max(len(timed) - window, 0):]
        if not timed:
            return None
        return sum(timed) / len(timed)

    def __repr__(self) -> str:
        return f"RunLedger({str(self.path)!r}, session={self.session})"


# ----------------------------------------------------------------------
# Queries (plain functions over entry lists, so tests can feed dicts).

def slowest_jobs(entries: List[Dict], n: int = 10) -> List[Dict]:
    """Top-N executed (neither cached nor resumed) entries by
    ``run_seconds``."""
    executed = [e for e in entries
                if not e.get("cached") and not e.get("resumed")]
    return sorted(executed, key=lambda e: e.get("run_seconds", 0.0),
                  reverse=True)[:n]


def hit_trend(entries: List[Dict]) -> List[Dict]:
    """Per-session cache behaviour, oldest session first.

    Each row: session id, first timestamp, job count, cache hits,
    hit rate, and total simulated seconds — a warm rerun of the same
    campaign shows up as a later session with a higher hit rate.
    """
    sessions: Dict[str, Dict] = {}
    order: List[str] = []
    for entry in entries:
        session = entry.get("session", "?")
        if session not in sessions:
            sessions[session] = {
                "session": session,
                "started": entry.get("ts", 0.0),
                "jobs": 0,
                "cached": 0,
                "failed": 0,
                "run_seconds": 0.0,
            }
            order.append(session)
        row = sessions[session]
        row["jobs"] += 1
        # A resumed job is never a hit, though older ledgers mark it
        # cached as well.
        row["cached"] += (1 if entry.get("cached")
                          and not entry.get("resumed") else 0)
        row["failed"] += 0 if entry.get("ok", True) else 1
        row["run_seconds"] += entry.get("run_seconds", 0.0)
    for row in sessions.values():
        row["hit_rate"] = row["cached"] / row["jobs"] if row["jobs"] else 0.0
    return [sessions[s] for s in order]


def _when(ts: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


def render_recent(entries: List[Dict], n: int = 15) -> str:
    """Aligned table of the newest N entries (newest last); N = 0 leaves
    only the header."""
    from repro.harness.common import format_table

    if not entries:
        return "(ledger empty)"
    rows = []
    for entry in entries[-n:] if n else ():
        rows.append([
            _when(entry.get("ts", 0.0)),
            entry.get("label", "?"),
            str(entry.get("digest", ""))[:8],
            "resumed" if entry.get("resumed")
            else "cache" if entry.get("cached")
            else "ok" if entry.get("ok", True) else "FAIL",
            f"{entry.get('run_seconds', 0.0):.3f}",
            f"{entry.get('queue_seconds', 0.0):.3f}",
            f"{entry.get('lookup_seconds', 0.0):.4f}",
            str(entry.get("cycles", "-")),
        ])
    return format_table(
        ["when", "label", "digest", "outcome", "run s", "queue s",
         "lookup s", "cycles"], rows)


def render_slowest(entries: List[Dict], n: int = 10) -> str:
    """Aligned table of the N slowest executed jobs."""
    from repro.harness.common import format_table

    rows = [[
        entry.get("label", "?"),
        str(entry.get("digest", ""))[:8],
        f"{entry.get('run_seconds', 0.0):.3f}",
        str(entry.get("cycles", "-")),
        "ok" if entry.get("ok", True) else "FAIL",
        _when(entry.get("ts", 0.0)),
    ] for entry in slowest_jobs(entries, n)]
    if not rows:
        return "(no executed jobs in ledger)"
    return format_table(
        ["label", "digest", "run s", "cycles", "outcome", "when"], rows)


def render_trend(entries: List[Dict]) -> str:
    """Aligned per-session cache-hit trend table."""
    from repro.harness.common import format_table

    rows = [[
        _when(row["started"]),
        row["session"],
        str(row["jobs"]),
        str(row["cached"]),
        f"{100.0 * row['hit_rate']:.0f}%",
        str(row["failed"]),
        f"{row['run_seconds']:.3f}",
    ] for row in hit_trend(entries)]
    if not rows:
        return "(ledger empty)"
    return format_table(
        ["started", "session", "jobs", "cached", "hit rate", "failed",
         "sim s"], rows)
