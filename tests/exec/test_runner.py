"""JobRunner batching: dedup, failure capture, progress, timeouts."""

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

    def leaves_a_cycle(spec, timeout):
        node = Node()
        node.self = node
        refs.append(weakref.ref(node))
        return "outcome"

    monkeypatch.setattr(runner_mod, "_run_job", leaves_a_cycle)
    enabled = gc.isenabled()
    gc.disable()        # only the worker's own collection may free it
    try:
        outcome, _, _ = runner_mod._pool_worker(
            make_spec("fib", 2, quick=True), None)
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

    def leaves_a_cycle(spec, timeout):
        node = Node()
        node.self = node
        refs.append(weakref.ref(node))
        return run_job(spec, timeout)

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

    def observe(done, total, spec, outcome, cached):
        seen.append((done, total, spec.label, outcome.ok, cached))

    runner = JobRunner(progress=observe)
    runner.run([make_spec("fib", n, quick=True) for n in (1, 2)])
    assert seen == [(1, 2, "fib-flex1", True, False),
                    (2, 2, "fib-flex2", True, False)]


def test_run_map_keys_by_spec():
    specs = [make_spec("fib", n, quick=True) for n in (1, 2)]
    outcomes = JobRunner().run_map(specs)
    assert set(outcomes) == set(specs)
    assert all(o.ok for o in outcomes.values())


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
                             "quarantined", "resumed", "retried",
                             "run_seconds", "submitted"]
    assert stats["run_seconds"] > 0.0
    assert stats["cache_seconds"] == 0.0       # no cache configured
    assert stats["retried"] == stats["quarantined"] == 0
    assert stats["resumed"] == stats["pool_restarts"] == 0


def test_runner_stats_cache_seconds(tmp_path):
    from repro.exec import ResultCache

    runner = JobRunner(cache=ResultCache(tmp_path))
    runner.run_checked([make_spec("fib", 1, quick=True)])
    assert runner.stats.as_dict()["cache_seconds"] > 0.0


# -- _deadline hardening (docs/EXECUTION.md failure handling) ----------

def test_deadline_noop_without_sigalrm(monkeypatch):
    # Platforms without SIGALRM (Windows) must run unbounded, not die.
    import signal as signal_mod

    from repro.exec import runner as runner_mod

    monkeypatch.delattr(signal_mod, "SIGALRM", raising=False)
    with runner_mod._deadline(0.01):
        pass    # no timeout armed, no AttributeError


def test_deadline_noop_off_main_thread():
    import threading

    from repro.exec import runner as runner_mod

    errors = []

    def body():
        try:
            # signal.signal would raise ValueError off the main
            # thread; _deadline must not even try.
            with runner_mod._deadline(0.01):
                pass
        except BaseException as exc:   # pragma: no cover
            errors.append(exc)

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    assert errors == []


def test_deadline_restores_previous_handler_when_arming_fails(
        monkeypatch):
    import signal as signal_mod

    from repro.exec import runner as runner_mod

    def previous(signum, frame):    # pragma: no cover - never fired
        pass

    old = signal_mod.signal(signal_mod.SIGALRM, previous)
    try:
        monkeypatch.setattr(
            runner_mod.signal, "alarm",
            lambda *_: (_ for _ in ()).throw(OSError("no alarm")))
        with runner_mod._deadline(0.01):
            pass    # arming failed: job runs unbounded
        assert signal_mod.getsignal(signal_mod.SIGALRM) is previous
    finally:
        signal_mod.signal(signal_mod.SIGALRM, old)


# -- retry / quarantine accounting (RunnerStats) ------------------------

def _flaky_run_job(fail_times, kind="timeout"):
    """A `_run_job` stand-in failing the first N calls per digest."""

    calls = {}

    def fake(spec, timeout):
        from repro.exec.engines import simulate

        n = calls.get(spec.digest, 0)
        calls[spec.digest] = n + 1
        if n < fail_times:
            return JobFailure(
                spec_digest=spec.digest, label=spec.label,
                error_type="FakeTimeout", message="injected",
                timed_out=(kind == "timeout"), kind=kind)
        return RunRecord.from_result(spec.digest, simulate(spec))

    return fake, calls


def test_retry_policy_recovers_transient_failure(monkeypatch):
    from repro.exec import RetryPolicy
    from repro.exec import runner as runner_mod

    fake, calls = _flaky_run_job(fail_times=1)
    monkeypatch.setattr(runner_mod, "_run_job", fake)
    policy = RetryPolicy(max_attempts=3, sleep=lambda s: None)
    runner = JobRunner(retry=policy)
    (outcome,) = runner.run([make_spec("fib", 2, quick=True)])
    assert outcome.ok
    assert runner.stats.retried == 1
    assert runner.stats.executed == 1
    assert runner.stats.failed == 0
    assert sum(calls.values()) == 2


def test_retry_budget_exhausts_to_failure(monkeypatch):
    from repro.exec import RetryPolicy
    from repro.exec import runner as runner_mod

    fake, calls = _flaky_run_job(fail_times=99)
    monkeypatch.setattr(runner_mod, "_run_job", fake)
    policy = RetryPolicy(max_attempts=2, sleep=lambda s: None)
    runner = JobRunner(retry=policy)
    (outcome,) = runner.run([make_spec("fib", 2, quick=True)])
    assert not outcome.ok
    assert runner.stats.retried == 1     # one re-attempt, then give up
    assert runner.stats.failed == 1
    assert sum(calls.values()) == 2


def test_sim_errors_never_retried(monkeypatch):
    from repro.exec import RetryPolicy
    from repro.exec import runner as runner_mod

    fake, calls = _flaky_run_job(fail_times=99, kind="sim-error")
    monkeypatch.setattr(runner_mod, "_run_job", fake)
    runner = JobRunner(retry=RetryPolicy(max_attempts=5,
                                         sleep=lambda s: None))
    (outcome,) = runner.run([make_spec("fib", 2, quick=True)])
    assert not outcome.ok
    assert runner.stats.retried == 0, \
        "deterministic failures must not burn attempts"
    assert sum(calls.values()) == 1


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
