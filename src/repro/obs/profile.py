"""Opt-in per-job cProfile capture and cross-job hot-function reports.

ROADMAP item 1 (a compiled hot core) starts with a measurement: which
Python frames actually dominate a campaign's wall-clock?  This module
answers it with the standard library profiler:

* ``repro <experiment> --profile`` makes the
  :class:`~repro.exec.runner.JobRunner` run every *simulated* job under
  ``cProfile`` (cached hits are free and are not profiled) and dump one
  ``<spec-digest>.pstats`` file per job into
  ``.repro-cache/profiles/``;
* ``repro profile-report`` aggregates every capture with
  :mod:`pstats` and prints one ranked hot-function table across the
  whole campaign — the basis for choosing the compiled-kernel cut.

Profiling is strictly host-side observability: it changes wall-clock,
never simulated cycles, and the capture sits entirely outside
:func:`~repro.exec.runner._run_job`'s result path, so record digests
are identical with profiling on or off, and a capture that cannot be
written never changes a job's outcome.
"""

from __future__ import annotations

import cProfile
import marshal
import pstats
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

#: Profile-capture directory name under the cache root.
PROFILE_DIRNAME = "profiles"

#: Sort orders understood by :func:`hot_functions`.
SORT_KEYS = ("cumulative", "tottime")


def default_profile_dir(cache_root: Union[str, Path, None] = None) -> Path:
    """``<cache-root>/profiles`` (the root defaults like the cache's)."""
    if cache_root is None:
        from repro.exec.cache import default_cache_dir

        cache_root = default_cache_dir()
    return Path(cache_root) / PROFILE_DIRNAME


@contextmanager
def capture_profile(path: Union[str, Path, None]):
    """Profile the block into ``path`` (no-op when ``path`` is None).

    Dumps standard ``pstats`` marshal data (:func:`_snapshot_stats`), so
    captures are loadable by any :mod:`pstats` tooling, not just this
    module.  The dump happens even when the block raises — a failed
    job's partial profile is exactly the interesting one.  A dump that
    raises ``OSError`` is dropped, as a failed ledger append is: the
    capture is a side output of the job it profiles.
    """
    if path is None:
        yield
        return
    path = Path(path)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "wb") as out:
                marshal.dump(_snapshot_stats(profiler), out)
        except OSError:
            pass


def _snapshot_stats(profiler: cProfile.Profile) -> Dict:
    """The profiler's ``pstats`` table, every call counted.

    ``pstats`` keys a function by ``(file, line, name)``.  Different code
    objects can share a key — every dataclass-generated ``__init__`` is
    compiled at ``<string>:2`` — and cProfile's own snapshot keeps only
    the last one's row.  This one sums the rows that share a key: calls,
    primitive calls, times and callers.
    """
    stats: Dict = {}
    callers_of: Dict[int, Dict] = {}  # id(code) -> its key's callers
    entries = profiler.getstats()
    for entry in entries:
        func = cProfile.label(entry.code)
        nc = entry.callcount
        cc = nc - entry.reccallcount
        row = stats.get(func)
        if row is None:
            row = (0, 0, 0.0, 0.0, {})
        stats[func] = (row[0] + cc, row[1] + nc, row[2] + entry.inlinetime,
                       row[3] + entry.totaltime, row[4])
        callers_of[id(entry.code)] = row[4]
    for entry in entries:
        func = cProfile.label(entry.code)
        for sub in entry.calls or ():
            callers = callers_of.get(id(sub.code))
            if callers is None:
                continue
            nc = sub.callcount
            prev = callers.get(func, (0, 0, 0.0, 0.0))
            # pstats caller tuples hold (calls, primitive calls, ...).
            callers[func] = (prev[0] + nc, prev[1] + nc - sub.reccallcount,
                             prev[2] + sub.inlinetime,
                             prev[3] + sub.totaltime)
    return stats


def profile_paths(root: Union[str, Path]) -> List[Path]:
    """Every ``*.pstats`` capture under ``root``, sorted by name."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(root.glob("*.pstats"))


def aggregate(paths: Sequence[Union[str, Path]]) -> Optional[pstats.Stats]:
    """One :class:`pstats.Stats` over every readable capture."""
    stats: Optional[pstats.Stats] = None
    for path in paths:
        try:
            loaded = pstats.Stats(str(path))
        except (OSError, ValueError, TypeError, EOFError):
            continue      # truncated or foreign file: skip, keep the rest
        if stats is None:
            stats = loaded
        else:
            stats.add(loaded)
    return stats


def hot_functions(paths: Sequence[Union[str, Path]], top: int = 20,
                  sort: str = "cumulative") -> List[Dict]:
    """Ranked cross-job hot-function rows.

    Each row: ``function`` (``file:line(name)`` with the path shortened
    to its last two components), ``ncalls``, ``tottime``, ``cumtime``,
    and ``percall`` (tottime per primitive call).
    """
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
    stats = aggregate(paths)
    if stats is None:
        return []
    key = 3 if sort == "cumulative" else 2     # (cc, nc, tt, ct, callers)
    rows: List[Dict] = []
    for (filename, line, name), (cc, nc, tt, ct, _callers) in \
            stats.stats.items():
        rows.append({
            "function": f"{_short(filename)}:{line}({name})",
            "ncalls": nc,
            "primcalls": cc,
            "tottime": tt,
            "cumtime": ct,
            "percall": tt / cc if cc else 0.0,
            "_key": (ct if key == 3 else tt),
        })
    rows.sort(key=lambda r: (-r["_key"], r["function"]))
    for row in rows:
        del row["_key"]
    return rows[:top]


def render_report(paths: Sequence[Union[str, Path]], top: int = 20,
                  sort: str = "cumulative") -> str:
    """Aligned hot-function table over every capture in ``paths``."""
    from repro.harness.common import format_table

    rows = hot_functions(paths, top=top, sort=sort)
    if not rows:
        return ("(no profile captures found — run an experiment with "
                "--profile first)")
    table = format_table(
        ["tottime s", "cumtime s", "calls", "percall ms", "function"],
        [[
            f"{row['tottime']:.3f}",
            f"{row['cumtime']:.3f}",
            str(row["ncalls"]),
            f"{1000.0 * row['percall']:.3f}",
            row["function"],
        ] for row in rows],
    )
    header = (f"hot functions across {len(list(paths))} profiled job(s), "
              f"sorted by {sort}:")
    return f"{header}\n{table}"


def _short(filename: str) -> str:
    """Last two path components: ``repro/sim/engine.py`` → readable,
    ``~`` (builtins) kept verbatim."""
    if filename.startswith("~") or filename.startswith("<"):
        return filename
    parts = Path(filename).parts
    return "/".join(parts[-2:]) if len(parts) >= 2 else filename
