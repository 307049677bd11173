"""Host-fault soak suite: chaos runs must match the fault-free truth.

The contract (docs/EXECUTION.md, "Failure handling & recovery"): with
cache self-healing, pool supervision, and checkpointing armed, a batch
running under an aggressive seeded :class:`ChaosPlan` — workers killed
mid-job, cache entries corrupted, transient I/O errors — still
*completes*, and every record is bit-identical to a fault-free serial
reference, because simulation is a pure function of the spec and every
injected host fault is resubmitted, quarantined, or degraded around.
"""

import os
import warnings

import pytest

from repro.exec import (
    ChaosError,
    ChaosPlan,
    JobRunner,
    ResultCache,
    make_spec,
)

#: 30+ cheap jobs spanning several shapes: the soak batch.
SOAK_SPECS = [
    ("fib", n, pes)
    for n in range(3, 13)            # 10 sizes
    for pes in (1, 2, 4)             # x 3 PE counts = 30 specs
]


def _specs():
    return [make_spec(bench, pes, quick=True, params={"n": n})
            for bench, n, pes in SOAK_SPECS]


@pytest.fixture(scope="module")
def reference():
    """Fault-free serial reference digests (the ground truth)."""
    records = JobRunner(jobs=1).run_checked(_specs())
    return [r.digest for r in records]


def test_chaos_plan_is_deterministic():
    a = ChaosPlan.default(seed=11)
    b = ChaosPlan.default(seed=11)
    rolls_a = [a.kill_worker("d%d" % i, 0) for i in range(50)]
    rolls_b = [b.kill_worker("d%d" % i, 0) for i in range(50)]
    assert rolls_a == rolls_b
    assert any(rolls_a), "default kill rate must actually fire"
    assert rolls_a != [ChaosPlan.default(seed=12).kill_worker(
        "d%d" % i, 0) for i in range(50)]


def test_resubmitted_victim_draws_a_fresh_kill_roll():
    plan = ChaosPlan(seed=0, kill_rate=0.5)
    rolls = {plan.kill_worker("x" * 32, sub) for sub in range(16)}
    assert rolls == {True, False}, \
        "kill decisions must vary across resubmissions or a job " \
        "could be killed forever"


def test_soak_parallel_chaos_matches_serial_reference(tmp_path,
                                                      reference):
    """The headline soak: kills + corruption + I/O errors, 4 workers."""
    chaos = ChaosPlan.default(seed=7)
    chaos.sleep = lambda s: None    # injected latency: free in tests
    runner = JobRunner(
        jobs=4,
        cache=ResultCache(tmp_path, chaos=chaos),
        chaos=chaos,
        manifest_dir=tmp_path / "manifests",
    )
    with warnings.catch_warnings():
        # Pool degradation (if this seed triggers it) is expected.
        warnings.simplefilter("ignore", RuntimeWarning)
        records = runner.run_checked(_specs())
    assert [r.digest for r in records] == reference, \
        "chaos must never change a simulated result, only its path"
    assert chaos.injected > 0, "the plan must actually have fired"


def test_soak_completes_across_multiple_seeds(tmp_path, reference):
    for seed in (1, 2, 3):
        chaos = ChaosPlan.default(seed=seed)
        chaos.sleep = lambda s: None
        runner = JobRunner(
            jobs=4,
            cache=ResultCache(tmp_path / str(seed), chaos=chaos),
            chaos=chaos,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            records = runner.run_checked(_specs())
        assert [r.digest for r in records] == reference, \
            f"seed {seed} diverged from the fault-free reference"


def test_corrupted_cache_self_heals_bit_identically(tmp_path,
                                                    reference):
    # Corruption-only plan: every write lands, many get damaged.
    chaos = ChaosPlan(seed=5, corrupt_rate=0.9)
    specs = _specs()[:6]
    warm = JobRunner(cache=ResultCache(tmp_path, chaos=chaos))
    warm.run_checked(specs)

    # Re-read without chaos: corrupt entries quarantine and re-simulate.
    runner = JobRunner(cache=ResultCache(tmp_path))
    records = runner.run_checked(specs)
    assert [r.digest for r in records] == reference[:6]
    assert runner.stats.quarantined > 0, \
        "a 0.9 corrupt rate over 6 writes must damage something"
    assert runner.stats.cached + runner.stats.executed == 6
    quarantined = list((tmp_path / "quarantine").rglob("*.json"))
    assert len(quarantined) == runner.stats.quarantined


def test_transient_io_errors_never_fail_the_batch(tmp_path, reference):
    chaos = ChaosPlan(seed=9, io_error_rate=0.5)
    chaos.sleep = lambda s: None
    specs = _specs()[:8]
    runner = JobRunner(cache=ResultCache(tmp_path, chaos=chaos))
    records = runner.run_checked(specs)   # raises if any job failed
    assert [r.digest for r in records] == reference[:8]
    assert runner.cache.io_errors > 0


def test_ledger_chaos_drops_lines_not_jobs(tmp_path, reference):
    from repro.obs.ledger import RunLedger

    chaos = ChaosPlan(seed=2, io_error_rate=0.7)
    ledger = RunLedger(tmp_path / "ledger", chaos=chaos)
    runner = JobRunner(ledger=ledger)
    records = runner.run_checked(_specs()[:6])
    assert [r.digest for r in records] == reference[:6]
    assert ledger.dropped > 0, "a 0.7 error rate must drop appends"
    assert ledger.appended + ledger.dropped == 6


def test_kill_only_chaos_retries_on_rebuilt_pools(tmp_path, reference,
                                                  monkeypatch):
    import repro.exec.runner as runner_mod

    # Kill rate high enough to break pools, everything else clean.
    chaos = ChaosPlan(seed=3, kill_rate=0.4)
    monkeypatch.setattr(runner_mod, "MAX_POOL_RESTARTS", 100)
    runner = JobRunner(
        jobs=2,
        chaos=chaos,
    )
    records = runner.run_checked(_specs()[:10])
    assert [r.digest for r in records] == reference[:10]
    assert runner.stats.pool_restarts > 0, \
        "a 0.4 kill rate over 10 jobs must break the pool"
    assert runner.stats.failed == 0


def test_pool_broken_during_submission_resubmits(reference, monkeypatch):
    # A killed worker can break the pool while the round is still being
    # submitted, so submit itself raises; the unsubmitted jobs must
    # move to the next round's pool instead of failing the batch.
    import repro.exec.runner as runner_mod
    from concurrent.futures.process import BrokenProcessPool

    submits = []

    class BreaksOnThirdSubmit(runner_mod.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submits.append(args)
            if len(submits) == 3:
                raise BrokenProcessPool("worker died mid-submission")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "ProcessPoolExecutor",
                        BreaksOnThirdSubmit)
    runner = JobRunner(jobs=2)
    records = runner.run_checked(_specs()[:6])
    assert [r.digest for r in records] == reference[:6]
    assert runner.stats.pool_restarts == 1
    assert len(submits) == 3 + 4   # 2 ran, 1 refused, 4 resubmitted


def test_worker_death_without_policy_resubmits_its_victims(
        tmp_path, reference, monkeypatch):
    # A worker that dies breaks only its pool.  Every unfinished job,
    # the one that killed it included, goes out again on a fresh pool,
    # so nothing comes back as a crash.  The marker file lets the job
    # survive its second run.
    import repro.exec.runner as runner_mod

    specs = _specs()[:8]
    doomed = specs[0].digest
    marker = tmp_path / "died-once"
    run_job = runner_mod._run_job

    def dies_once(spec):
        if spec.digest == doomed and not marker.exists():
            marker.touch()
            os._exit(70)
        return run_job(spec)

    monkeypatch.setattr(runner_mod, "_run_job", dies_once)
    runner = JobRunner(jobs=2)
    records = runner.run_checked(specs)
    assert [r.digest for r in records] == reference[:8]
    assert runner.stats.pool_restarts == 1
    assert runner.stats.failed == 0


def test_pool_loss_degrades_to_serial_and_completes(reference,
                                                    monkeypatch):
    import repro.exec.runner as runner_mod

    # Kill every submission: the pool can never finish a job, so the
    # runner must exhaust its restart budget and degrade to serial.
    chaos = ChaosPlan(seed=1, kill_rate=1.0)
    monkeypatch.setattr(runner_mod, "MAX_POOL_RESTARTS", 1)
    runner = JobRunner(
        jobs=2,
        chaos=chaos,
    )
    specs = _specs()[:4]
    with pytest.warns(RuntimeWarning, match="degrading"):
        records = runner.run_checked(specs)
    assert [r.digest for r in records] == reference[:4]
    assert runner.stats.pool_restarts == 2   # budget 1, exceeded on 2nd


def test_sigkilled_campaign_resumes_with_zero_resimulation(tmp_path,
                                                           reference):
    """The --resume acceptance: a killed campaign re-simulates nothing
    it completed, even with no cache at all."""
    specs = _specs()
    manifest_dir = tmp_path / "manifests"

    # "First run": dies (SIGKILL) after completing 20 of 30 jobs — the
    # manifest saw those 20 appends and nothing else.
    first = JobRunner(manifest_dir=manifest_dir)
    first.run_checked(specs[:20])
    # The partial batch has its own campaign id; simulate the kill by
    # rewriting its manifest under the full batch's id, exactly the
    # bytes a killed 30-job run would have left behind.
    from repro.exec.robust import CampaignManifest, campaign_id

    partial = CampaignManifest.for_specs(manifest_dir, specs[:20])
    full_id = campaign_id(s.digest for s in specs)
    (manifest_dir / f"{full_id}.jsonl").write_bytes(
        partial.path.read_bytes())

    resumed = JobRunner(manifest_dir=manifest_dir)
    records = resumed.run_checked(specs)
    assert resumed.stats.resumed == 20
    assert resumed.stats.executed == 10, \
        "only the jobs the killed run never finished may simulate"
    assert [r.digest for r in records] == reference


def test_chaos_error_is_an_oserror():
    assert issubclass(ChaosError, OSError), \
        "guards that tolerate real I/O errors must tolerate chaos"
