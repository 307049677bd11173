"""Parallel job execution with caching and failure capture.

:class:`JobRunner` executes *batches* of specs.  The jobs that neither a
campaign manifest nor the cache serves run in *rounds*: each round runs
every unfinished job once, and every outcome it returns is completed
(and cached, if it succeeded), so a job's failure is final within its
batch.  Only the jobs a broken pool lost run again, in the next round:

* ``jobs=1`` (the default, or ``REPRO_JOBS``), or a batch with one job
  to simulate, runs its rounds in-process — the reference path every
  parallel execution must match bit-for-bit;
* ``jobs>1`` runs each round on a fresh supervised
  ``concurrent.futures.ProcessPoolExecutor``.  Each worker builds its
  engine from scratch, so results are bit-identical to the in-process
  path (every run owns its seeded LFSR streams; asserted by
  ``tests/exec/test_bitexact.py``);
* duplicate specs within a batch are simulated once and fanned back to
  every position — overlapping sweep grids get reuse even without a
  cache;
* a worker exception never kills the batch: it comes back as a
  structured :class:`~repro.exec.record.JobFailure` carrying a
  failure ``kind`` (``crash`` / ``sim-error``);
* a runaway job is bounded by its spec alone: its ``max_cycles`` (and
  the optional watchdog) end it in a diagnosed ``DeadlockError``;
* a ``progress`` callback — e.g. :class:`StderrProgress` — observes
  every completion and its source: ``"simulated"``, ``"cache"``, or
  ``"resumed"`` (served by a campaign manifest).

The runner is also the host-side **instrumentation point**
(docs/OBSERVABILITY.md): give it a
:class:`~repro.obs.metrics.MetricsRegistry` and it records per-job
wall-clock splits (queue-wait vs run vs cache-lookup), cache
hit/miss/store timings, pool occupancy, and failure counts; give it a
:class:`~repro.obs.ledger.RunLedger` and every completion is appended
to the persistent run ledger; give it a ``profile_dir`` and every
simulated job runs under ``cProfile`` with one capture per spec digest.

And it is the host-side **robustness point** (docs/EXECUTION.md,
"Failure handling & recovery"): every pool is supervised — the jobs a
broken pool leaves unfinished go out again on a fresh pool, up to
:data:`MAX_POOL_RESTARTS` times, after which the remaining rounds run
in-process instead of failing the batch.  Give it a ``manifest_dir``
and every completion is checkpointed to an atomic
:class:`~repro.exec.robust.CampaignManifest`, so a re-run of the same
batch (``--resume``) skips completed jobs even with the cache disabled
and after a SIGKILL, and simulates a ``crash`` again; give it a
:class:`~repro.exec.chaos.ChaosPlan` and host faults are injected
deterministically (the soak suite in ``tests/exec/test_chaos.py``).

Simulated results are bit-identical whatever is configured:
instrumentation only observes, and resubmissions re-run a pure
function.

The ``fork`` start method is used when available so workers inherit the
parent's interpreter state (including ``PYTHONHASHSEED``); see
docs/EXECUTION.md for the bit-exactness argument.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.exec.cache import ResultCache
from repro.exec.record import JobFailure, RunRecord, check_outcomes
from repro.exec.spec import JobSpec

#: Environment variable providing the default ``jobs`` value.
JOBS_ENV = "REPRO_JOBS"

#: Broken pools one batch rebuilds; past this, its remaining rounds run
#: in-process.
MAX_POOL_RESTARTS = 2

#: Seconds between a pool worker's checks that its campaign is alive.
_PARENT_POLL_SECONDS = 0.5

Outcome = Union[RunRecord, JobFailure]
#: ``(done, total, spec, outcome, source)``; ``source`` is
#: ``"simulated"``, ``"cache"`` or ``"resumed"``.
ProgressFn = Callable[[int, int, JobSpec, Outcome, str], None]


def default_jobs() -> int:
    """Default parallelism: ``REPRO_JOBS`` or 1 (serial)."""
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


def _run_job(spec: JobSpec) -> Outcome:
    """Simulate one spec, converting any exception into a JobFailure.

    Exceptions caught *here* happened inside the simulation and are
    deterministic functions of the spec (``kind="sim-error"``).
    Worker-process death never reaches this handler: the pool-side
    caller resubmits its victims, and classifies any other exception
    the pool raises as ``crash``.
    """
    from repro.exec.engines import simulate

    try:
        return RunRecord.from_result(spec.digest, simulate(spec))
    except Exception as exc:
        return JobFailure.from_exception(spec.digest, spec.label, exc)


def _init_pool_worker(parent: int) -> None:
    """Pool initializer: freeze the heap the worker inherits (see
    :func:`_worker`), and exit once the campaign process ``parent`` is
    gone.

    Without the watch, a worker whose campaign is SIGKILLed waits on the
    pool's call queue forever: it and its siblings hold both ends of the
    pool's pipes, inherited over ``fork``, so no read sees end-of-file.
    """
    gc.freeze()
    threading.Thread(target=_exit_with_parent, args=(parent,),
                     name="repro-parent-watch", daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _worker(spec: JobSpec, submitted_at: Optional[float] = None,
            profile_path: Optional[str] = None,
            chaos_kill: bool = False):
    """:func:`_run_job` with measurement, in-process or in a pool worker.

    Returns ``(outcome, run_seconds, queue_seconds)``.  ``submitted_at``
    is the round's ``time.perf_counter()`` at its start — comparable
    across ``fork`` on Linux (CLOCK_MONOTONIC is system-wide), so the
    difference is the job's wait behind the round's other jobs;
    best-effort 0.0 where that assumption fails.  ``profile_path`` wraps
    the simulation in a ``cProfile`` capture, entirely outside the
    result path: a capture that cannot be written is dropped, never the
    job's outcome.

    A full collection follows every job, after ``run_seconds`` is
    taken.  A finished simulation is a web of reference cycles (engine,
    processes, PEs, caches) that only a full collection frees, and the
    automatic collector may not run one for several jobs, so peak RSS
    would depend on which jobs ran where and in what order; collecting
    after every job keeps at most one simulation in the heap.  The heap
    a job starts from is frozen (``gc.freeze``: the pool's initializer,
    or :meth:`JobRunner.run` for its batch), so each collection
    traverses only what the job allocated.

    ``chaos_kill`` (decided by the parent's seeded
    :class:`~repro.exec.chaos.ChaosPlan`) hard-exits the worker
    process mid-job — no cleanup, no result — modelling an OOM kill;
    it breaks the pool exactly the way a real worker death does.
    """
    if chaos_kill:
        os._exit(70)
    start = time.perf_counter()
    queue_seconds = max(0.0, start - submitted_at) if submitted_at else 0.0
    if profile_path is not None:
        from repro.obs.profile import capture_profile

        with capture_profile(profile_path):
            outcome = _run_job(spec)
    else:
        outcome = _run_job(spec)
    run_seconds = time.perf_counter() - start
    gc.collect()
    return outcome, run_seconds, queue_seconds


class StderrProgress:
    """Progress printer with a throughput rate and an ETA.

    The rate (jobs/sec) is measured from the first completion of the
    current batch (state resets whenever ``done == 1``, so one shared
    instance serves many sequential batches).  Before the batch has
    produced two data points of its own, the ETA of a simulated
    completion falls back to the run ledger's historical mean job time
    (``ledger.estimate_seconds()``).  A first completion served by the
    cache or a manifest prints no pace: it took no simulation, so the
    mean says nothing of it.

    The runner notifies quarantines through :meth:`note_quarantine`; a
    nonzero count is surfaced on every line (e.g. ``[1 quarantined]``).
    """

    def __init__(self, ledger=None) -> None:
        self._ledger = ledger
        self._t0: Optional[float] = None
        self._n0 = 0
        self._hint: Optional[float] = None
        self._hint_loaded = False
        self._quarantined = 0

    def note_quarantine(self, count: int = 1) -> None:
        """Corrupt cache entries were quarantined (called by the runner)."""
        self._quarantined += count

    def _pace(self, done: int, total: int, now: float,
              source: str) -> str:
        """`` (r.r jobs/s, eta Ns)`` suffix, or ``""`` if unknowable."""
        rate = None
        if self._t0 is not None and done > self._n0:
            elapsed = now - self._t0
            if elapsed > 0:
                rate = (done - self._n0) / elapsed
        if rate is None and self._hint and source == "simulated":
            rate = 1.0 / self._hint
        if not rate or done >= total:
            return ""
        eta = (total - done) / rate
        return f" ({rate:.1f} jobs/s, eta {eta:.0f}s)"

    def _health(self) -> str:
        """`` [N quarantined]`` suffix, or ``""``."""
        if not self._quarantined:
            return ""
        return f" [{self._quarantined} quarantined]"

    def __call__(self, done: int, total: int, spec: JobSpec,
                 outcome: Outcome, source: str) -> None:
        now = time.perf_counter()
        if done <= 1 or self._t0 is None:
            self._t0, self._n0 = now, done
            if self._ledger is not None and not self._hint_loaded:
                self._hint_loaded = True
                try:
                    self._hint = self._ledger.estimate_seconds()
                except Exception:     # ledger is advisory, never fatal
                    self._hint = None
        tag = (source if source != "simulated"
               else "ok" if outcome.ok else "FAIL")
        line = f"[{done}/{total}] {spec.label}: {tag}"
        line += self._pace(done, total, now, source)
        line += self._health()
        if sys.stderr.isatty():
            end = "\n" if done == total else ""
            sys.stderr.write(f"\r\x1b[2K{line}{end}")
        else:
            sys.stderr.write(line + "\n")
        sys.stderr.flush()
        if done >= total:
            # Batch over: the health counter is per-batch, like the rate.
            self._quarantined = 0


@dataclass
class RunnerStats:
    """Aggregate execution counts and timings for one :class:`JobRunner`.

    The counts are deterministic for a given batch (robustness counts
    are deterministic under a seeded chaos plan); the two wall-clock
    totals are host measurements.  ``run_seconds`` is *summed job time*
    (with ``jobs>1`` it exceeds batch wall-clock — it is the work the
    pool absorbed), ``cache_seconds`` is time spent on cache lookups
    and stores.
    """

    submitted: int = 0      # specs handed to run() (incl. duplicates)
    deduplicated: int = 0   # duplicate specs folded into another job
    cached: int = 0         # cache hits
    executed: int = 0       # real simulations
    failed: int = 0         # jobs that returned a JobFailure
    quarantined: int = 0    # corrupt cache entries moved aside
    resumed: int = 0        # jobs skipped via a campaign manifest
    pool_restarts: int = 0  # process pools rebuilt after worker death
    run_seconds: float = 0.0    # summed per-job simulation wall-clock
    cache_seconds: float = 0.0  # summed cache lookup + store wall-clock

    @property
    def uncached(self) -> int:
        """Jobs the cache did not serve: real simulations plus failures.

        Failed jobs never enter the cache (and never bump ``executed``),
        so warm-cache SLO gates like ``--expect-cached`` must count both
        — a batch that simulated *and failed* is just as cold as one
        that simulated successfully.  Manifest-resumed jobs did not
        simulate now, so they do not count.
        """
        return self.executed + self.failed

    def as_dict(self) -> Dict[str, float]:
        return dict(submitted=self.submitted,
                    deduplicated=self.deduplicated, cached=self.cached,
                    executed=self.executed, failed=self.failed,
                    quarantined=self.quarantined, resumed=self.resumed,
                    pool_restarts=self.pool_restarts,
                    run_seconds=self.run_seconds,
                    cache_seconds=self.cache_seconds)


class JobRunner:
    """Execute batches of :class:`JobSpec` jobs, serially or in parallel.

    Parameters
    ----------
    jobs:
        Worker-process count; 1 (default) runs in-process.  ``None``
        reads ``REPRO_JOBS``.
    cache:
        A :class:`ResultCache`, or ``None`` (default) for no caching.
    progress:
        Callback ``(done, total, spec, outcome, source)`` observed on
        every job completion; ``source`` is ``"simulated"``,
        ``"cache"`` or ``"resumed"``.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`, or ``None``
        (default) for zero instrumentation.  Deterministic counters
        (``exec.jobs.*``, ``exec.cache.{hits,misses,stores}``, per-job
        ``exec.job.cycles``) plus volatile wall-clock histograms
        (``exec.job.{run,queue}_seconds``,
        ``exec.cache.{lookup,store}_seconds``, ``exec.pool.occupancy``).
    ledger:
        A :class:`~repro.obs.ledger.RunLedger`, or ``None`` (default):
        every completion (simulated, cached or resumed) is appended
        with its timing split.
    profile_dir:
        Directory for per-job ``cProfile`` captures
        (``<spec-digest>.pstats``), or ``None`` (default) for no
        profiling.  Cached hits are not profiled — nothing ran.
    chaos:
        A :class:`~repro.exec.chaos.ChaosPlan`, or ``None`` (default):
        deterministic host-fault injection (worker kills) for the soak
        suite.  Cache/ledger chaos is wired on those objects directly.
    manifest_dir:
        Directory for :class:`~repro.exec.robust.CampaignManifest`
        checkpoints, or ``None`` (default).  When set, every ``run()``
        batch writes one manifest keyed by its spec digests, and jobs
        already completed there are skipped (``stats.resumed``).
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[ProgressFn] = None,
                 metrics=None, ledger=None,
                 profile_dir: Union[str, Path, None] = None,
                 chaos=None,
                 manifest_dir: Union[str, Path, None] = None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.cache = cache
        self.progress = progress
        self.metrics = metrics
        self.ledger = ledger
        self.profile_dir = Path(profile_dir) if profile_dir else None
        self.chaos = chaos
        self.manifest_dir = Path(manifest_dir) if manifest_dir else None
        self.stats = RunnerStats()

    # ------------------------------------------------------------------
    def _profile_path(self, spec: JobSpec) -> Optional[str]:
        if self.profile_dir is None:
            return None
        return str(self.profile_dir / f"{spec.digest}.pstats")

    @staticmethod
    def _mp_context():
        try:
            import multiprocessing

            return multiprocessing.get_context("fork")
        except ValueError:      # pragma: no cover - non-Unix fallback
            return None

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> List[Outcome]:
        """Execute every spec; returns outcomes aligned with ``specs``.

        Failures come back as :class:`JobFailure` entries — the batch
        always completes.  Use :meth:`run_checked` to raise instead.
        """
        self.stats.submitted += len(specs)
        unique: Dict[str, JobSpec] = {}
        for spec in specs:
            if spec.digest in unique:
                self.stats.deduplicated += 1
            else:
                unique[spec.digest] = spec
        if self.metrics is not None:
            self.metrics.counter(
                "exec.jobs.submitted", "specs handed to run()").inc(
                len(specs))
            self.metrics.counter(
                "exec.jobs.deduplicated",
                "duplicate specs folded into another job").inc(
                len(specs) - len(unique))

        manifest = None
        if self.manifest_dir is not None:
            from repro.exec.robust import CampaignManifest

            manifest = CampaignManifest.for_specs(self.manifest_dir,
                                                  unique.values())

        outcomes: Dict[str, Outcome] = {}
        done = 0
        total = len(unique)

        def _complete(spec: JobSpec, outcome: Outcome, source: str,
                      run_seconds: float = 0.0,
                      queue_seconds: float = 0.0,
                      lookup_seconds: float = 0.0) -> None:
            nonlocal done
            done += 1
            outcomes[spec.digest] = outcome
            if source == "resumed":
                self.stats.resumed += 1
            elif source == "cache":
                self.stats.cached += 1
            else:
                self.stats.run_seconds += run_seconds
                if outcome.ok:
                    self.stats.executed += 1
                else:
                    self.stats.failed += 1
            if self.metrics is not None:
                self._record_metrics(outcome, source, run_seconds,
                                     queue_seconds)
            if self.ledger is not None:
                self.ledger.record_job(
                    spec, outcome, source=source,
                    run_seconds=run_seconds,
                    queue_seconds=queue_seconds,
                    lookup_seconds=lookup_seconds, jobs=self.jobs,
                )
            if manifest is not None and source != "resumed":
                manifest.record(spec, outcome)
            if self.progress is not None:
                self.progress(done, total, spec, outcome, source)

        pending: List[JobSpec] = []
        for spec in unique.values():
            if manifest is not None:
                prior = manifest.completed(spec.digest)
                if prior is not None:
                    _complete(spec, prior, "resumed")
                    continue
            record, lookup = self._cache_get(spec)
            if record is not None:
                _complete(spec, record, "cache", lookup_seconds=lookup)
            else:
                pending.append(spec)
        # The caller's heap stays frozen while the batch runs (see
        # _worker).
        gc.freeze()
        try:
            self._run_rounds(pending, _complete)
        finally:
            gc.unfreeze()
        return [outcomes[spec.digest] for spec in specs]

    # -- the round loop -------------------------------------------------
    def _run_rounds(self, pending: List[JobSpec],
                    complete: Callable[..., None]) -> None:
        """Simulate ``pending`` in rounds until every job completes.

        Each round runs every unfinished job once: on a fresh pool when
        ``jobs>1`` and more than one job is pending, in-process
        otherwise.  Every outcome, a failure included, is completed as
        it arrives.  A job lost with a broken pool goes out again in the
        next round; after :data:`MAX_POOL_RESTARTS` broken pools the
        remaining rounds run in-process, with a warning.
        """
        todo: Dict[str, JobSpec] = {s.digest: s for s in pending}
        submissions: Dict[str, int] = dict.fromkeys(todo, 0)
        pooled = self.jobs > 1 and len(todo) > 1
        restarts = 0
        while todo:
            specs = list(todo.values())
            results = (self._pool_round(specs, submissions) if pooled
                       else self._in_process_round(specs))
            for spec, (outcome, run_seconds, queue_seconds) in results:
                self._cache_put(spec, outcome)
                del todo[spec.digest]
                complete(spec, outcome, "simulated", run_seconds,
                         queue_seconds)
            if todo:    # lost with the pool
                restarts += 1
                self.stats.pool_restarts += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "exec.pool.restarts",
                        "process pools rebuilt after worker death"
                    ).inc()
                if restarts > MAX_POOL_RESTARTS:
                    warnings.warn(
                        f"process pool broke {restarts} times "
                        f"(limit {MAX_POOL_RESTARTS}); degrading "
                        f"{len(todo)} remaining job(s) to in-process "
                        f"execution", RuntimeWarning, stacklevel=3)
                    if self.metrics is not None:
                        self.metrics.counter(
                            "exec.pool.degraded",
                            "batches degraded to in-process execution"
                        ).inc()
                    pooled = False

    def _in_process_round(self, specs: List[JobSpec]):
        """Run ``specs`` one after another in this process, yielding
        ``(spec, (outcome, run_seconds, queue_seconds))`` for each.

        Chaos worker kills never apply here: in-process rounds are the
        path of last resort that guarantees completion.
        """
        submitted_at = time.perf_counter()
        for spec in specs:
            yield spec, _worker(spec, submitted_at, self._profile_path(spec))

    def _pool_round(self, specs: List[JobSpec],
                    submissions: Dict[str, int]):
        """Run ``specs`` on a fresh pool, yielding like
        :meth:`_in_process_round` as jobs finish.

        A job the round does not yield was lost with the pool: one
        worker death breaks the whole ``ProcessPoolExecutor``, failing
        every pending future, the culprit's and its victims' alike, and
        a pool that breaks mid-submission refuses the rest of the round.
        A broken pool takes no more work, so the next round starts a
        fresh one.  ``submissions`` keys the chaos plan's kill
        decisions, so a resubmitted job draws a fresh roll.
        """
        with ProcessPoolExecutor(max_workers=self.jobs,
                                 mp_context=self._mp_context(),
                                 initializer=_init_pool_worker,
                                 initargs=(os.getpid(),)) as pool:
            submitted_at = time.perf_counter()
            futures = {}
            for spec in specs:
                digest = spec.digest
                kill = (self.chaos is not None
                        and self.chaos.kill_worker(digest,
                                                   submissions[digest]))
                try:
                    future = pool.submit(_worker, spec, submitted_at,
                                         self._profile_path(spec), kill)
                except BrokenProcessPool:
                    break
                submissions[digest] += 1
                futures[future] = spec
            remaining = len(futures)
            for future in as_completed(futures):
                spec = futures[future]
                self._note_occupancy(remaining)
                remaining -= 1
                try:
                    result = future.result()
                except BrokenProcessPool:
                    continue
                except Exception as exc:   # raised outside the simulation
                    result = (JobFailure.from_exception(
                        spec.digest, spec.label, exc, kind="crash"),
                        0.0, 0.0)
                yield spec, result

    # ------------------------------------------------------------------
    def _note_occupancy(self, remaining: int) -> None:
        if self.metrics is not None:
            # In-flight + queued jobs at this completion: how loaded
            # the pool was over the batch's lifetime.
            self.metrics.histogram(
                "exec.pool.occupancy",
                (1, 2, 4, 8, 16, 32, 64),
                "pending jobs at each completion",
                volatile=True).record(remaining)

    # ------------------------------------------------------------------
    def _cache_get(self, spec: JobSpec):
        """Timed cache lookup: ``(record_or_None, lookup_seconds)``."""
        if self.cache is None:
            return None, 0.0
        start = time.perf_counter()
        quarantined_before = self.cache.quarantined
        record = self.cache.get(spec)
        lookup = time.perf_counter() - start
        self.stats.cache_seconds += lookup
        quarantined = self.cache.quarantined - quarantined_before
        if quarantined > 0:
            self.stats.quarantined += quarantined
            if self.metrics is not None:
                self.metrics.counter(
                    "exec.cache.quarantined",
                    "corrupt cache entries moved aside").inc(quarantined)
            if self.progress is not None:
                note = getattr(self.progress, "note_quarantine", None)
                if note is not None:
                    note(quarantined)
        if self.metrics is not None:
            self.metrics.counter(
                "exec.cache.hits" if record is not None
                else "exec.cache.misses").inc()
            self.metrics.histogram(
                "exec.cache.lookup_seconds",
                help="result-cache lookup wall-clock",
                volatile=True).record(lookup)
        return record, lookup

    def _cache_put(self, spec: JobSpec, outcome: Outcome) -> None:
        """Timed cache store (successful outcomes only, best effort)."""
        if not outcome.ok or self.cache is None:
            return
        start = time.perf_counter()
        stored = self.cache.put(spec, outcome)
        store = time.perf_counter() - start
        self.stats.cache_seconds += store
        if self.metrics is not None:
            if stored is not None:
                self.metrics.counter("exec.cache.stores").inc()
            else:
                self.metrics.counter(
                    "exec.cache.store_errors",
                    "cache stores dropped on I/O errors").inc()
            self.metrics.histogram(
                "exec.cache.store_seconds",
                help="result-cache store wall-clock",
                volatile=True).record(store)

    def _record_metrics(self, outcome: Outcome, source: str,
                        run_seconds: float, queue_seconds: float) -> None:
        """Per-completion metric emission (``self.metrics`` is set)."""
        from repro.obs.metrics import CYCLES_BUCKETS

        metrics = self.metrics
        if source == "resumed":
            metrics.counter("exec.jobs.resumed",
                            "jobs skipped via a campaign manifest").inc()
            return
        if source == "cache":
            metrics.counter("exec.jobs.cached", "cache hits").inc()
        elif outcome.ok:
            metrics.counter("exec.jobs.executed",
                            "real simulations").inc()
        if not outcome.ok:
            metrics.counter("exec.jobs.failed",
                            "jobs returning a JobFailure").inc()
        if outcome.ok:
            metrics.histogram("exec.job.cycles", CYCLES_BUCKETS,
                              "simulated cycles per job").record(
                outcome.cycles)
        if source == "simulated":
            metrics.histogram("exec.job.run_seconds",
                              help="per-job simulation wall-clock",
                              volatile=True).record(run_seconds)
            metrics.histogram("exec.job.queue_seconds",
                              help="submit-to-start wall-clock",
                              volatile=True).record(queue_seconds)

    # ------------------------------------------------------------------
    def run_checked(self, specs: Sequence[JobSpec]) -> List[RunRecord]:
        """Like :meth:`run` but raises ``JobFailedError`` on any failure."""
        return check_outcomes(self.run(specs))
