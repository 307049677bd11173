"""Parallel job execution with caching, timeouts, and failure capture.

:class:`JobRunner` executes *batches* of specs:

* ``jobs=1`` (the default, or ``REPRO_JOBS``) runs serially in-process —
  the reference path every parallel execution must match bit-for-bit;
* ``jobs>1`` fans the non-cached jobs out over a supervised
  ``concurrent.futures.ProcessPoolExecutor``.  Each worker builds its
  engine from scratch, so results are bit-identical to the serial path
  (every run owns its seeded LFSR streams; asserted by
  ``tests/exec/test_bitexact.py``);
* duplicate specs within a batch are simulated once and fanned back to
  every position — overlapping sweep grids get reuse even without a
  cache;
* a worker exception never kills the batch: it comes back as a
  structured :class:`~repro.exec.record.JobFailure` carrying a
  failure ``kind`` (``timeout`` / ``crash`` / ``sim-error``);
* ``timeout`` (seconds per job) bounds runaway simulations via
  ``SIGALRM`` inside the worker (Unix main threads; ignored elsewhere);
* a ``progress`` callback — e.g. :class:`StderrProgress` — observes
  every completion, cached or simulated.

The runner is also the host-side **instrumentation point**
(docs/OBSERVABILITY.md): give it a
:class:`~repro.obs.metrics.MetricsRegistry` and it records per-job
wall-clock splits (queue-wait vs run vs cache-lookup), cache
hit/miss/store timings, pool occupancy, and timeout/failure counts;
give it a :class:`~repro.obs.ledger.RunLedger` and every completion is
appended to the persistent run ledger; give it a ``profile_dir`` and
every simulated job runs under ``cProfile`` with one capture per spec
digest.

And it is the host-side **robustness point** (docs/EXECUTION.md,
"Failure handling & recovery"): every parallel batch is supervised —
a broken process pool is rebuilt and its unfinished jobs resubmitted
at no retry cost, up to ``max_pool_restarts`` times, after which the
rest degrade to serial in-process execution instead of failing the
batch.  Give it a :class:`~repro.exec.robust.RetryPolicy` and a job's
own transient failures (``timeout`` and ``crash`` outcomes) are retried
with exponential backoff and a raised deadline; without one it runs under
``RetryPolicy(max_attempts=1)``, which retries nothing.  Give it a
``manifest_dir`` and every completion is checkpointed to an atomic
:class:`~repro.exec.robust.CampaignManifest`, so a re-run of the same
batch (``--resume``) skips completed jobs even with the cache disabled
and after a SIGKILL; give it a :class:`~repro.exec.chaos.ChaosPlan`
and host faults are injected deterministically (the soak suite in
``tests/exec/test_chaos.py``).

Simulated results are bit-identical whatever is configured:
instrumentation only observes, and retries and resubmissions re-run a
pure function.

The ``fork`` start method is used when available so workers inherit the
parent's interpreter state (including ``PYTHONHASHSEED``); see
docs/EXECUTION.md for the bit-exactness argument.
"""

from __future__ import annotations

import gc
import math
import os
import signal
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.exec.cache import ResultCache
from repro.exec.record import JobFailure, RunRecord, check_outcomes
from repro.exec.robust import RetryPolicy
from repro.exec.spec import JobSpec

#: Environment variable providing the default ``jobs`` value.
JOBS_ENV = "REPRO_JOBS"

Outcome = Union[RunRecord, JobFailure]
ProgressFn = Callable[[int, int, JobSpec, Outcome, bool], None]


def default_jobs() -> int:
    """Default parallelism: ``REPRO_JOBS`` or 1 (serial)."""
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


class _JobTimeout(Exception):
    """Internal: the per-job SIGALRM deadline fired."""


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`_JobTimeout` after ``seconds`` (best effort).

    Uses ``SIGALRM``, so it only arms on Unix main threads; everywhere
    else (no SIGALRM, a worker thread) the job simply runs without a
    timeout.  If arming fails partway, any pre-existing handler is
    restored before the job runs — the context can never leak a
    foreign SIGALRM disposition.
    """
    if not seconds or not hasattr(signal, "SIGALRM"):
        yield
        return
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _fire(signum, frame):
        raise _JobTimeout(f"job exceeded {seconds:g}s timeout")

    try:
        previous = signal.signal(signal.SIGALRM, _fire)
    except ValueError:          # races with an interpreter shutdown etc.
        yield
        return
    try:
        armed = False
        try:
            signal.alarm(max(1, math.ceil(seconds)))
            armed = True
        except (OSError, OverflowError, ValueError):
            pass                # arming failed: run unbounded
        try:
            yield
        finally:
            if armed:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _run_job(spec: JobSpec, timeout: Optional[float]) -> Outcome:
    """Simulate one spec, converting any exception into a JobFailure.

    Exceptions caught *here* happened inside the simulation and are
    deterministic functions of the spec (``kind="sim-error"``, or
    ``timeout`` for the deadline).  Worker-process death never reaches
    this handler: the pool-side caller resubmits its victims, and
    classifies any other exception the pool raises as ``crash``.
    """
    from repro.exec.engines import simulate

    try:
        with _deadline(timeout):
            result = simulate(spec)
        return RunRecord.from_result(spec.digest, result)
    except _JobTimeout as exc:
        return JobFailure.from_exception(spec.digest, spec.label, exc,
                                         timed_out=True)
    except Exception as exc:
        return JobFailure.from_exception(spec.digest, spec.label, exc)


def _worker(spec: JobSpec, timeout: Optional[float],
            submitted_at: Optional[float] = None,
            profile_path: Optional[str] = None,
            chaos_kill: bool = False):
    """Pool-side wrapper around :func:`_run_job` adding measurement.

    Returns ``(outcome, run_seconds, queue_seconds)``.  ``submitted_at``
    is the parent's ``time.perf_counter()`` at submit time — comparable
    across ``fork`` on Linux (CLOCK_MONOTONIC is system-wide), so the
    difference is the job's time in the pool queue; best-effort 0.0
    where that assumption fails.  ``profile_path`` wraps the simulation
    in a ``cProfile`` capture, entirely outside the result path.

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
            outcome = _run_job(spec, timeout)
    else:
        outcome = _run_job(spec, timeout)
    return outcome, time.perf_counter() - start, queue_seconds


def _pool_worker(*args):
    """:func:`_worker`, then a full collection.

    A finished simulation is a web of reference cycles (engine,
    processes, PEs, caches) that only a full collection frees, and the
    automatic collector may not run one for several jobs.  A worker's
    peak RSS would then depend on which jobs the pool happened to give
    it and in what order; collecting after every job keeps at most one
    simulation in its heap.  The pool's initializer, ``gc.freeze``,
    moves the heap inherited over ``fork`` out of the collector's
    reach, so each collection traverses only the worker's own objects.
    """
    result = _worker(*args)
    gc.collect()
    return result


class StderrProgress:
    """Progress printer with a throughput rate and an ETA.

    The rate (jobs/sec) is measured from the first completion of the
    current batch (state resets whenever ``done == 1``, so one shared
    instance serves many sequential batches).  Before the batch has
    produced two data points of its own, the ETA falls back to the run
    ledger's historical mean job time (``ledger.estimate_seconds()``) —
    a mean over *final* attempts only (the ledger marks retried
    attempts, and the estimator excludes them), so a flaky stretch of
    history does not skew the forecast.

    The runner notifies retries and quarantines through
    :meth:`note_retry` / :meth:`note_quarantine`; nonzero counts are
    surfaced on every line (e.g. ``[3 retried, 1 quarantined]``).
    Retried attempts never bump ``done``, so the measured jobs/sec is
    completions per second, not attempts per second.
    """

    def __init__(self, ledger=None) -> None:
        self._ledger = ledger
        self._t0: Optional[float] = None
        self._n0 = 0
        self._hint: Optional[float] = None
        self._hint_loaded = False
        self._retried = 0
        self._quarantined = 0

    def note_retry(self, count: int = 1) -> None:
        """A failed attempt is being re-run (called by the runner)."""
        self._retried += count

    def note_quarantine(self, count: int = 1) -> None:
        """Corrupt cache entries were quarantined (called by the runner)."""
        self._quarantined += count

    def _pace(self, done: int, total: int,
              now: float) -> str:
        """`` (r.r jobs/s, eta Ns)`` suffix, or ``""`` if unknowable."""
        rate = None
        if self._t0 is not None and done > self._n0:
            elapsed = now - self._t0
            if elapsed > 0:
                rate = (done - self._n0) / elapsed
        if rate is None and self._hint:
            rate = 1.0 / self._hint
        if not rate or done >= total:
            return ""
        eta = (total - done) / rate
        return f" ({rate:.1f} jobs/s, eta {eta:.0f}s)"

    def _health(self) -> str:
        """`` [N retried, M quarantined]`` suffix, or ``""``."""
        parts = []
        if self._retried:
            parts.append(f"{self._retried} retried")
        if self._quarantined:
            parts.append(f"{self._quarantined} quarantined")
        return f" [{', '.join(parts)}]" if parts else ""

    def __call__(self, done: int, total: int, spec: JobSpec,
                 outcome: Outcome, cached: bool) -> None:
        now = time.perf_counter()
        if done <= 1 or self._t0 is None:
            self._t0, self._n0 = now, done
            if self._ledger is not None and not self._hint_loaded:
                self._hint_loaded = True
                try:
                    self._hint = self._ledger.estimate_seconds()
                except Exception:     # ledger is advisory, never fatal
                    self._hint = None
        tag = "cache" if cached else ("ok" if outcome.ok else "FAIL")
        line = f"[{done}/{total}] {spec.label}: {tag}"
        line += self._pace(done, total, now)
        line += self._health()
        if sys.stderr.isatty():
            end = "\n" if done == total else ""
            sys.stderr.write(f"\r\x1b[2K{line}{end}")
        else:
            sys.stderr.write(line + "\n")
        sys.stderr.flush()
        if done >= total:
            # Batch over: health counters are per-batch, like the rate.
            self._retried = self._quarantined = 0


@dataclass
class RunnerStats:
    """Aggregate execution counts and timings for one :class:`JobRunner`.

    The counts are deterministic for a given batch (retry/robustness
    counts are deterministic under a seeded chaos plan); the two
    wall-clock totals are host measurements.  ``run_seconds`` is
    *summed job time* including retried attempts (with ``jobs>1`` it
    exceeds batch wall-clock — it is the work the pool absorbed),
    ``cache_seconds`` is time spent on cache lookups and stores.
    """

    submitted: int = 0      # specs handed to run() (incl. duplicates)
    deduplicated: int = 0   # duplicate specs folded into another job
    cached: int = 0         # cache hits
    executed: int = 0       # real simulations
    failed: int = 0         # jobs that returned a JobFailure
    retried: int = 0        # failed attempts that were re-run
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
                    retried=self.retried, quarantined=self.quarantined,
                    resumed=self.resumed,
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
    timeout:
        Per-job wall-clock budget in seconds (``None`` = unbounded).
    progress:
        Callback ``(done, total, spec, outcome, cached)`` observed on
        every job completion.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`, or ``None``
        (default) for zero instrumentation.  Deterministic counters
        (``exec.jobs.*``, ``exec.cache.{hits,misses,stores}``, per-job
        ``exec.job.cycles``) plus volatile wall-clock histograms
        (``exec.job.{run,queue}_seconds``,
        ``exec.cache.{lookup,store}_seconds``, ``exec.pool.occupancy``).
    ledger:
        A :class:`~repro.obs.ledger.RunLedger`, or ``None`` (default):
        every completion (cached or simulated) is appended with its
        timing split; retried attempts are appended too, marked
        ``retried``.
    profile_dir:
        Directory for per-job ``cProfile`` captures
        (``<spec-digest>.pstats``), or ``None`` (default) for no
        profiling.  Cached hits are not profiled — nothing ran.
    retry:
        A :class:`~repro.exec.robust.RetryPolicy`, or ``None``
        (default) for ``RetryPolicy(max_attempts=1)``: one attempt per
        job.  A policy with more attempts retries transient failures
        (timeouts with a raised deadline).  Either way broken pools are
        rebuilt up to ``max_pool_restarts`` times, and further pool
        loss degrades to serial in-process execution.
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
                 timeout: Optional[float] = None,
                 progress: Optional[ProgressFn] = None,
                 metrics=None, ledger=None,
                 profile_dir: Union[str, Path, None] = None,
                 retry=None, chaos=None,
                 manifest_dir: Union[str, Path, None] = None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.cache = cache
        self.timeout = timeout
        self.progress = progress
        self.metrics = metrics
        self.ledger = ledger
        self.profile_dir = Path(profile_dir) if profile_dir else None
        self.retry = RetryPolicy(max_attempts=1) if retry is None else retry
        self.chaos = chaos
        self.manifest_dir = Path(manifest_dir) if manifest_dir else None
        self.stats = RunnerStats()

    # ------------------------------------------------------------------
    def _profile_path(self, spec: JobSpec) -> Optional[str]:
        if self.profile_dir is None:
            return None
        self.profile_dir.mkdir(parents=True, exist_ok=True)
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

        def _complete(spec: JobSpec, outcome: Outcome, cached: bool,
                      run_seconds: float = 0.0,
                      queue_seconds: float = 0.0,
                      lookup_seconds: float = 0.0,
                      resumed: bool = False) -> None:
            nonlocal done
            done += 1
            outcomes[spec.digest] = outcome
            if resumed:
                self.stats.resumed += 1
            elif cached:
                self.stats.cached += 1
            elif outcome.ok:
                self.stats.executed += 1
            if not outcome.ok and not resumed:
                self.stats.failed += 1
            if not cached and not resumed:
                self.stats.run_seconds += run_seconds
            if self.metrics is not None:
                self._record_metrics(outcome, cached, run_seconds,
                                     queue_seconds, resumed)
            if self.ledger is not None:
                self.ledger.record_job(
                    spec, outcome, cached=cached,
                    run_seconds=run_seconds,
                    queue_seconds=queue_seconds,
                    lookup_seconds=lookup_seconds, jobs=self.jobs,
                    resumed=resumed,
                )
            if manifest is not None and not resumed:
                manifest.record(spec, outcome)
            if self.progress is not None:
                self.progress(done, total, spec, outcome, cached)

        pending: List[JobSpec] = []
        batch_start = time.perf_counter()
        for spec in unique.values():
            if manifest is not None:
                prior = manifest.completed(spec.digest)
                if prior is not None:
                    _complete(spec, prior, cached=True, resumed=True)
                    continue
            record, lookup = self._cache_get(spec)
            if record is not None:
                _complete(spec, record, cached=True,
                          lookup_seconds=lookup)
            else:
                pending.append(spec)

        if self.jobs > 1 and len(pending) > 1:
            self._run_parallel(pending, _complete)
        else:
            self._run_serial(pending, _complete, batch_start)

        return [outcomes[spec.digest] for spec in specs]

    # -- serial path (jobs=1 and the degraded pool fallback) -----------
    def _run_serial(self, pending: List[JobSpec],
                    complete: Callable[..., None],
                    batch_start: Optional[float] = None,
                    attempts: Optional[Dict[str, int]] = None) -> None:
        """In-process execution with the retry policy's loop.

        ``attempts`` carries per-digest attempt counts accumulated by a
        degraded parallel batch, so retry budgets span the degradation.
        Chaos worker kills never apply here: the in-process path is the
        guaranteed-completion fallback.

        Like a pool worker (:func:`_pool_worker`), the batch runs a full
        collection after every job, so it holds at most one finished
        simulation; the caller's heap stays frozen for the batch, so
        each collection traverses only what the batch allocated.
        """
        policy = self.retry
        gc.freeze()
        try:
            for spec in pending:
                attempt = attempts.get(spec.digest, 0) if attempts else 0
                while True:
                    outcome, run_seconds, queue_seconds = _worker(
                        spec, policy.timeout_for(self.timeout, attempt),
                        batch_start, self._profile_path(spec))
                    gc.collect()
                    if not outcome.ok and policy.should_retry(outcome,
                                                              attempt):
                        self._note_retry(spec, outcome, run_seconds,
                                         queue_seconds)
                        policy.sleep(policy.delay(spec.digest, attempt))
                        attempt += 1
                        continue
                    break
                self._cache_put(spec, outcome)
                complete(spec, outcome, cached=False,
                         run_seconds=run_seconds,
                         queue_seconds=queue_seconds)
        finally:
            gc.unfreeze()

    # -- parallel path (jobs>1, more than one pending job) -------------
    def _run_parallel(self, pending: List[JobSpec],
                      complete: Callable[..., None]) -> None:
        """Supervised pool execution with retries and chaos kills.

        Runs in rounds: each round submits every unfinished spec to a
        fresh pool (so crash retries never share a possibly-wounded
        pool with their first attempt).  A worker death breaks the
        whole ``ProcessPoolExecutor``; unfinished victims are
        resubmitted without consuming retry budget — only a job's *own*
        observed failure does.  After ``max_pool_restarts`` pool
        losses, the remaining jobs degrade to serial in-process
        execution with a warning rather than failing the batch.
        """
        policy = self.retry
        todo: Dict[str, JobSpec] = {s.digest: s for s in pending}
        attempts: Dict[str, int] = {d: 0 for d in todo}
        submissions: Dict[str, int] = {d: 0 for d in todo}
        restarts = 0
        while todo:
            broken = False
            retried_this_round: List[str] = []
            round_specs = list(todo.values())
            with ProcessPoolExecutor(max_workers=self.jobs,
                                     mp_context=self._mp_context(),
                                     initializer=gc.freeze) as pool:
                submitted_at = time.perf_counter()
                futures = {}
                for spec in round_specs:
                    digest = spec.digest
                    kill = (self.chaos is not None
                            and self.chaos.kill_worker(
                                digest, submissions[digest]))
                    try:
                        future = pool.submit(
                            _pool_worker, spec,
                            policy.timeout_for(self.timeout,
                                               attempts[digest]),
                            submitted_at, self._profile_path(spec), kill)
                    except BrokenProcessPool:
                        # A worker died before the round was fully
                        # submitted: the rest wait for the next pool.
                        broken = True
                        break
                    submissions[digest] += 1
                    futures[future] = spec
                remaining = len(futures)
                for future in as_completed(futures):
                    spec = futures[future]
                    digest = spec.digest
                    self._note_occupancy(remaining)
                    remaining -= 1
                    run_seconds = queue_seconds = 0.0
                    try:
                        outcome, run_seconds, queue_seconds = (
                            future.result())
                    except BrokenProcessPool:
                        # A victim of some worker's death, not
                        # necessarily the culprit: resubmit next round
                        # at no retry cost (the pool-restart budget
                        # bounds this loop instead).
                        broken = True
                        continue
                    except Exception as exc:   # this worker died
                        outcome = JobFailure.from_exception(
                            spec.digest, spec.label, exc, kind="crash"
                        )
                    if not outcome.ok and policy.should_retry(
                            outcome, attempts[digest]):
                        self._note_retry(spec, outcome, run_seconds,
                                         queue_seconds)
                        retried_this_round.append(digest)
                        attempts[digest] += 1
                        continue        # stays in todo for next round
                    self._cache_put(spec, outcome)
                    del todo[digest]
                    complete(spec, outcome, cached=False,
                             run_seconds=run_seconds,
                             queue_seconds=queue_seconds)
            if not todo:
                break
            if broken:
                restarts += 1
                self.stats.pool_restarts += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "exec.pool.restarts",
                        "process pools rebuilt after worker death"
                    ).inc()
                if restarts > policy.max_pool_restarts:
                    warnings.warn(
                        f"process pool broke {restarts} times "
                        f"(limit {policy.max_pool_restarts}); degrading "
                        f"{len(todo)} remaining job(s) to serial "
                        f"in-process execution", RuntimeWarning,
                        stacklevel=3)
                    if self.metrics is not None:
                        self.metrics.counter(
                            "exec.pool.degraded",
                            "batches degraded to serial execution"
                        ).inc()
                    self._run_serial(list(todo.values()), complete,
                                     attempts=attempts)
                    return
            if retried_this_round:
                policy.sleep(max(
                    policy.delay(d, attempts[d] - 1)
                    for d in retried_this_round))

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

    def _note_retry(self, spec: JobSpec, outcome: Outcome,
                    run_seconds: float, queue_seconds: float) -> None:
        """Account one failed attempt that is about to be re-run."""
        self.stats.retried += 1
        self.stats.run_seconds += run_seconds
        if self.metrics is not None:
            self.metrics.counter(
                "exec.jobs.retried",
                "failed attempts re-run under the retry policy").inc()
        if self.ledger is not None:
            self.ledger.record_job(
                spec, outcome, cached=False, run_seconds=run_seconds,
                queue_seconds=queue_seconds, jobs=self.jobs,
                retried=True,
            )
        if self.progress is not None:
            note = getattr(self.progress, "note_retry", None)
            if note is not None:
                note()

    # ------------------------------------------------------------------
    def _cache_get(self, spec: JobSpec):
        """Timed cache lookup: ``(record_or_None, lookup_seconds)``."""
        if self.cache is None:
            return None, 0.0
        start = time.perf_counter()
        quarantined_before = getattr(self.cache, "quarantined", 0)
        record = self.cache.get(spec)
        lookup = time.perf_counter() - start
        self.stats.cache_seconds += lookup
        quarantined = (getattr(self.cache, "quarantined", 0)
                       - quarantined_before)
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
        try:
            stored = self.cache.put(spec, outcome)
        except OSError:         # caches without their own guard
            stored = None
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

    def _record_metrics(self, outcome: Outcome, cached: bool,
                        run_seconds: float, queue_seconds: float,
                        resumed: bool = False) -> None:
        """Per-completion metric emission (``self.metrics`` is set)."""
        from repro.obs.metrics import CYCLES_BUCKETS

        metrics = self.metrics
        if resumed:
            metrics.counter("exec.jobs.resumed",
                            "jobs skipped via a campaign manifest").inc()
            return
        if cached:
            metrics.counter("exec.jobs.cached", "cache hits").inc()
        elif outcome.ok:
            metrics.counter("exec.jobs.executed",
                            "real simulations").inc()
        if not outcome.ok:
            metrics.counter("exec.jobs.failed",
                            "jobs returning a JobFailure").inc()
            if getattr(outcome, "timed_out", False):
                metrics.counter("exec.jobs.timeout",
                                "jobs killed by the per-job "
                                "timeout").inc()
        if outcome.ok:
            metrics.histogram("exec.job.cycles", CYCLES_BUCKETS,
                              "simulated cycles per job").record(
                outcome.cycles)
        if not cached:
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

    def run_map(self, specs: Sequence[JobSpec]
                ) -> Dict[JobSpec, Outcome]:
        """Outcomes keyed by spec (deduplicated)."""
        return dict(zip(specs, self.run(specs)))
