"""JobRunner batching: dedup, failure capture, progress."""

import os
import signal

import pytest

from repro.core.exceptions import ConfigError
from repro.exec import (
    JobFailedError,
    JobFailure,
    JobRunner,
    RunRecord,
    make_spec,
)


def test_outcomes_align_with_input_order():
    specs = [make_spec("fib", n, quick=True) for n in (4, 1, 2)]
    records = JobRunner().run_checked(specs)
    assert [r.label for r in records] == ["fib-flex4", "fib-flex1",
                                         "fib-flex2"]


def test_duplicate_specs_simulated_once():
    spec = make_spec("fib", 2, quick=True)
    runner = JobRunner()
    a, b, c = runner.run_checked([spec, make_spec("fib", 2, quick=True),
                                  spec])
    assert runner.stats.submitted == 3
    assert runner.stats.deduplicated == 2
    assert runner.stats.executed == 1
    assert a.digest == b.digest == c.digest


def test_failure_captured_without_killing_batch():
    good = make_spec("fib", 2, quick=True)
    # A 100-cycle budget cannot complete fib: DeadlockError, typed.
    bad = make_spec("fib", 2, quick=True, max_cycles=100)
    runner = JobRunner()
    ok, fail = runner.run([good, bad])
    assert isinstance(ok, RunRecord) and ok.ok
    assert isinstance(fail, JobFailure) and not fail.ok
    assert fail.error_type == "DeadlockError"
    assert fail.parallelxl, "simulator diagnostics are typed failures"
    assert runner.stats.failed == 1


def test_parallel_failure_captured():
    good = make_spec("fib", 2, quick=True)
    bad = make_spec("fib", 2, quick=True, max_cycles=100)
    ok, fail = JobRunner(jobs=2).run([good, bad])
    assert ok.ok and not fail.ok
    assert fail.error_type == "DeadlockError"


def test_pool_worker_frees_each_finished_job(monkeypatch):
    """Garbage a job leaves in a reference cycle is gone by the time
    the pool worker hands the job's result back."""
    import gc
    import weakref

    from repro.exec import runner as runner_mod

    class Node:
        pass

    refs = []

    def leaves_a_cycle(spec):
        node = Node()
        node.self = node
        refs.append(weakref.ref(node))
        return "outcome"

    monkeypatch.setattr(runner_mod, "_run_job", leaves_a_cycle)
    enabled = gc.isenabled()
    gc.disable()        # only the worker's own collection may free it
    try:
        outcome, _, _ = runner_mod._worker(make_spec("fib", 2, quick=True))
    finally:
        if enabled:
            gc.enable()
    assert outcome == "outcome"
    assert refs[0]() is None


def test_serial_batch_frees_each_finished_job(monkeypatch):
    """The in-process path collects after every job too: a job's
    reference-cycle garbage is gone when its completion is reported,
    and the caller's heap is not left frozen."""
    import gc
    import weakref

    from repro.exec import runner as runner_mod

    class Node:
        pass

    refs = []
    run_job = runner_mod._run_job

    def leaves_a_cycle(spec):
        node = Node()
        node.self = node
        refs.append(weakref.ref(node))
        return run_job(spec)

    monkeypatch.setattr(runner_mod, "_run_job", leaves_a_cycle)
    alive = []
    runner = JobRunner(progress=lambda done, total, spec, outcome, cached:
                       alive.append(refs[-1]() is not None))
    enabled = gc.isenabled()
    gc.disable()        # only the runner's own collections may free them
    try:
        runner.run_checked([make_spec("fib", n, quick=True)
                            for n in (1, 2)])
    finally:
        if enabled:
            gc.enable()
    assert alive == [False, False]
    assert gc.get_freeze_count() == 0


def test_run_checked_raises_with_structured_failure():
    bad = make_spec("fib", 2, quick=True, max_cycles=100)
    with pytest.raises(JobFailedError) as excinfo:
        JobRunner().run_checked([bad])
    assert excinfo.value.failure.error_type == "DeadlockError"
    assert "fib-flex2" in str(excinfo.value)


def test_progress_callback_sees_every_job():
    seen = []

    def observe(done, total, spec, outcome, source):
        seen.append((done, total, spec.label, outcome.ok, source))

    runner = JobRunner(progress=observe)
    runner.run([make_spec("fib", n, quick=True) for n in (1, 2)])
    assert seen == [(1, 2, "fib-flex1", True, "simulated"),
                    (2, 2, "fib-flex2", True, "simulated")]


def test_verification_failure_is_not_a_typed_diagnostic():
    # An unknown benchmark fails in the harness, not the simulator.
    runner = JobRunner()
    (outcome,) = runner.run([make_spec("nonesuch", 2, quick=True)])
    assert not outcome.ok
    assert not outcome.parallelxl


def test_jobs_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert JobRunner().jobs == 3
    monkeypatch.setenv("REPRO_JOBS", "bogus")
    assert JobRunner().jobs == 1


def test_runner_stats_dict():
    runner = JobRunner()
    runner.run_checked([make_spec("fib", 1, quick=True)])
    stats = runner.stats.as_dict()
    assert stats["submitted"] == 1 and stats["executed"] == 1
    # The dict shape is a stable mini-API: results_io and the CLI's
    # timing summary both consume these exact keys.
    assert sorted(stats) == ["cache_seconds", "cached", "deduplicated",
                             "executed", "failed", "pool_restarts",
                             "quarantined", "resumed", "run_seconds",
                             "submitted"]
    assert stats["run_seconds"] > 0.0
    assert stats["cache_seconds"] == 0.0       # no cache configured
    assert stats["quarantined"] == 0
    assert stats["resumed"] == stats["pool_restarts"] == 0


def test_runner_stats_cache_seconds(tmp_path):
    from repro.exec import ResultCache

    runner = JobRunner(cache=ResultCache(tmp_path))
    runner.run_checked([make_spec("fib", 1, quick=True)])
    assert runner.stats.as_dict()["cache_seconds"] > 0.0


# -- failure / quarantine accounting (RunnerStats) ---------------------

def test_sim_errors_never_retried(monkeypatch):
    from repro.exec import runner as runner_mod

    calls = []

    def fails(spec):
        calls.append(spec.digest)
        return JobFailure(spec_digest=spec.digest, label=spec.label,
                          error_type="FakeError", message="injected",
                          kind="sim-error")

    monkeypatch.setattr(runner_mod, "_run_job", fails)
    runner = JobRunner()
    (outcome,) = runner.run([make_spec("fib", 2, quick=True)])
    assert not outcome.ok
    assert runner.stats.failed == 1
    assert len(calls) == 1, "deterministic failures must not burn attempts"


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_profile_dump_leaves_the_job_outcome_alone(tmp_path, jobs):
    """A profile capture is a side output: a dump that cannot be
    written (a directory at its path) neither aborts the batch nor
    fails a job whose simulation succeeded."""
    specs = [make_spec("fib", n, quick=True) for n in (1, 2)]
    profiles = tmp_path / "profiles"
    (profiles / f"{specs[0].digest}.pstats").mkdir(parents=True)
    runner = JobRunner(jobs=jobs, profile_dir=profiles)
    records = runner.run_checked(specs)
    assert [r.label for r in records] == ["fib-flex1", "fib-flex2"]
    assert runner.stats.executed == 2 and runner.stats.failed == 0
    assert (profiles / f"{specs[1].digest}.pstats").is_file()


def test_quarantine_counted_by_runner(tmp_path):
    from repro.exec import ResultCache

    spec = make_spec("fib", 2, quick=True)
    cache = ResultCache(tmp_path)
    warm = JobRunner(cache=cache)
    warm.run_checked([spec])
    (path,) = cache.entry_paths()
    path.write_text("{truncated")
    runner = JobRunner(cache=ResultCache(tmp_path))
    (outcome,) = runner.run([spec])
    assert outcome.ok, "corrupt entry must re-simulate, not fail"
    assert runner.stats.quarantined == 1
    assert runner.stats.executed == 1 and runner.stats.cached == 0


# A campaign whose pool is running, held in its progress hook: it
# prints its pool workers' pids at the first completion and waits.
_HELD_CAMPAIGN = """
import multiprocessing, time
from repro.exec import JobRunner, make_spec

def hold(done, total, spec, outcome, source):
    pids = sorted(p.pid for p in multiprocessing.active_children())
    print(*pids, flush=True)
    time.sleep(300)

JobRunner(jobs=2, progress=hold).run(
    [make_spec("fib", n, quick=True) for n in (1, 2, 3, 4)])
"""


def _alive(pid):
    """Whether ``pid`` runs: a zombie counts as gone, since nothing may
    reap an orphan's exit (PID 1 in a container need not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_pool_workers_exit_when_the_campaign_is_killed():
    """SIGKILLing a campaign's main process leaves no pool worker
    running."""
    import select
    import subprocess
    import sys
    import time
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-c", _HELD_CAMPAIGN],
                            env=env, stdout=subprocess.PIPE, text=True)
    workers = []
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        assert ready, "the campaign never completed a job"
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(workers) == 2 and all(map(_alive, workers))
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)], \
            "pool workers outlived their campaign"
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        for pid in filter(_alive, workers):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
