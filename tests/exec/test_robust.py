"""RetryPolicy rules and CampaignManifest checkpoint/resume."""

import json
import re

import pytest

from repro.exec import (
    CampaignManifest,
    JobFailure,
    JobRunner,
    RetryPolicy,
    RunRecord,
    campaign_id,
    make_spec,
    unit_roll,
)


def _failure(kind, digest="d" * 32):
    return JobFailure(spec_digest=digest, label="fib-flex2",
                      error_type="X", message="m",
                      timed_out=(kind == "timeout"), kind=kind)


# -- unit_roll ----------------------------------------------------------

def test_unit_roll_deterministic_and_uniformish():
    assert unit_roll(1, "a", 0) == unit_roll(1, "a", 0)
    assert unit_roll(1, "a", 0) != unit_roll(1, "a", 1)
    draws = [unit_roll(7, "x", i) for i in range(200)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.3 < sum(draws) / len(draws) < 0.7


# -- RetryPolicy --------------------------------------------------------

def test_retry_classification_by_kind():
    policy = RetryPolicy()
    assert policy.retryable(_failure("timeout"))
    assert policy.retryable(_failure("crash"))
    assert not policy.retryable(_failure("sim-error")), \
        "re-running a pure function cannot change the answer"


def test_retry_budget_is_total_attempts():
    policy = RetryPolicy(max_attempts=3)
    timeout = _failure("timeout")
    assert policy.should_retry(timeout, 0)
    assert policy.should_retry(timeout, 1)
    assert not policy.should_retry(timeout, 2)
    assert not RetryPolicy(max_attempts=1).should_retry(timeout, 0)


def test_backoff_grows_with_deterministic_jitter():
    policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0,
                         jitter=0.25, seed=3)
    d0 = policy.delay("a" * 32, 0)
    d1 = policy.delay("a" * 32, 1)
    # Within the jitter band around 0.1 and 0.2 respectively.
    assert 0.075 <= d0 < 0.125
    assert 0.15 <= d1 < 0.25
    # Pure function of (seed, digest, attempt): replayable.
    assert d0 == RetryPolicy(backoff_seconds=0.1, jitter=0.25,
                             seed=3).delay("a" * 32, 0)
    assert d0 != RetryPolicy(backoff_seconds=0.1, jitter=0.25,
                             seed=4).delay("a" * 32, 0)


def test_no_jitter_is_exact_exponential():
    policy = RetryPolicy(backoff_seconds=0.5, backoff_factor=3.0,
                         jitter=0.0)
    assert policy.delay("d", 0) == 0.5
    assert policy.delay("d", 2) == 4.5


def test_timeout_raised_on_retries_only():
    policy = RetryPolicy(timeout_scale=2.0)
    assert policy.timeout_for(None, 3) is None
    assert policy.timeout_for(10.0, 0) == 10.0
    assert policy.timeout_for(10.0, 1) == 20.0
    assert policy.timeout_for(10.0, 2) == 40.0


# -- CampaignManifest ---------------------------------------------------

def _specs():
    return [make_spec("fib", n, quick=True) for n in (1, 2, 3)]


def test_campaign_id_is_order_independent_but_content_sensitive():
    a = campaign_id(["x", "y", "z"])
    assert a == campaign_id(["z", "x", "y"])
    assert a != campaign_id(["x", "y"])


def test_manifest_roundtrip(tmp_path):
    specs = _specs()
    manifest = CampaignManifest.for_specs(tmp_path, specs)
    assert len(manifest) == 0
    record = RunRecord(spec_digest=specs[0].digest, label="fib-flex1",
                       cycles=123, clock_mhz=100.0)
    manifest.record(specs[0], record)
    reloaded = CampaignManifest.for_specs(tmp_path, specs)
    assert len(reloaded) == 1
    got = reloaded.completed(specs[0].digest)
    assert got is not None and got.digest == record.digest
    assert reloaded.completed(specs[1].digest) is None


def test_manifest_skips_partial_and_foreign_lines(tmp_path):
    specs = _specs()
    manifest = CampaignManifest.for_specs(tmp_path, specs)
    record = RunRecord(spec_digest=specs[0].digest, label="fib-flex1",
                       cycles=1, clock_mhz=100.0)
    manifest.record(specs[0], record)
    with open(manifest.path, "a") as handle:
        handle.write('{"v": 1, "salt": "stale-code", "digest": "'
                     + specs[1].digest + '", "ok": true}\n')
        handle.write('{"truncated-by-sigkill')   # no newline: mid-write
    reloaded = CampaignManifest.for_specs(tmp_path, specs)
    assert len(reloaded) == 1, \
        "stale-salt and partial lines must be skipped silently"


def test_manifest_survives_non_utf8_corruption(tmp_path):
    """Disk corruption poisons only its own line, never the resume."""
    specs = _specs()
    manifest = CampaignManifest.for_specs(tmp_path, specs)
    record = RunRecord(spec_digest=specs[0].digest, label="fib-flex1",
                       cycles=1, clock_mhz=100.0)
    manifest.record(specs[0], record)
    with open(manifest.path, "ab") as handle:
        handle.write(b'{"digest": "\xff\xfe-not-utf8", "ok": true}\n')
    reloaded = CampaignManifest.for_specs(tmp_path, specs)
    assert len(reloaded) == 1, \
        "the good line must survive a corrupted neighbour"
    assert reloaded.completed(specs[0].digest) is not None


def test_manifest_transient_failures_rerun_on_resume(tmp_path):
    specs = _specs()
    manifest = CampaignManifest.for_specs(tmp_path, specs)
    manifest.record(specs[0], _failure("timeout", specs[0].digest))
    manifest.record(specs[1], _failure("sim-error", specs[1].digest))
    reloaded = CampaignManifest.for_specs(tmp_path, specs)
    assert reloaded.completed(specs[0].digest) is None, \
        "a healthier host may beat the timeout: re-run it"
    diagnosed = reloaded.completed(specs[1].digest)
    assert diagnosed is not None and not diagnosed.ok, \
        "deterministic failures are final: do not re-run"


def test_manifest_lines_are_self_contained_json(tmp_path):
    specs = _specs()
    manifest = CampaignManifest.for_specs(tmp_path, specs)
    record = RunRecord(spec_digest=specs[0].digest, label="fib-flex1",
                       cycles=9, clock_mhz=100.0)
    manifest.record(specs[0], record)
    (line,) = manifest.path.read_text().splitlines()
    entry = json.loads(line)
    assert entry["digest"] == specs[0].digest
    assert entry["ok"] is True
    assert entry["record"]["cycles"] == 9


def test_manifest_record_line_damaged_in_place_re_simulates(tmp_path):
    """The last digit of a cycle count changed: the same length, still
    JSON.  The record no longer hashes to its line's checksum, so the
    job simulates again instead of resuming with the wrong count."""
    specs = [make_spec("fib", n, quick=True) for n in (1, 2)]
    records = JobRunner(manifest_dir=tmp_path).run_checked(specs)
    (path,) = tmp_path.glob("*.jsonl")
    data = path.read_bytes()
    at = re.search(rb'"cycles":\d*(\d)', data).start(1)
    bad = data[:at] + b"%d" % ((data[at] - ord("0") + 1) % 10) + data[at + 1:]
    assert [json.loads(line) for line in bad.splitlines()]
    path.write_bytes(bad)
    runner = JobRunner(manifest_dir=tmp_path)
    resumed = runner.run_checked(specs)
    assert runner.stats.resumed == 1 and runner.stats.executed == 1
    assert [r.digest for r in resumed] == [r.digest for r in records]


def test_manifest_skips_a_record_filed_under_another_spec(tmp_path):
    specs = _specs()
    manifest = CampaignManifest.for_specs(tmp_path, specs)
    record = RunRecord(spec_digest=specs[0].digest, label="fib-flex1",
                       cycles=7, clock_mhz=100.0)
    manifest.record(specs[1], record)   # checksum intact, wrong job
    reloaded = CampaignManifest.for_specs(tmp_path, specs)
    assert len(reloaded) == 0
    assert reloaded.completed(specs[1].digest) is None


# -- runner integration: --resume semantics -----------------------------

def test_runner_resumes_from_manifest_without_cache(tmp_path):
    specs = [make_spec("fib", n, quick=True) for n in (2, 3, 4)]
    first = JobRunner(manifest_dir=tmp_path)
    records = first.run_checked(specs)
    assert first.stats.executed == 3 and first.stats.resumed == 0

    second = JobRunner(manifest_dir=tmp_path)
    resumed = second.run_checked(specs)
    assert second.stats.executed == 0, \
        "a resumed campaign re-simulates zero completed jobs"
    assert second.stats.resumed == 3
    assert second.stats.cached == 0 and second.stats.failed == 0
    assert [r.digest for r in resumed] == [r.digest for r in records]


def test_runner_resume_runs_only_the_remainder(tmp_path):
    specs = [make_spec("fib", n, quick=True) for n in (2, 3, 4)]
    JobRunner(manifest_dir=tmp_path).run_checked(specs[:2])
    # Same 2 specs appear in a larger batch: different campaign id, so
    # its manifest starts empty — a campaign is the whole batch.
    bigger = JobRunner(manifest_dir=tmp_path)
    bigger.run_checked(specs)
    assert bigger.stats.executed == 3

    # But re-running the *same* batch after adding its manifest resumes.
    again = JobRunner(manifest_dir=tmp_path)
    again.run_checked(specs)
    assert again.stats.resumed == 3 and again.stats.executed == 0


def test_resumed_jobs_do_not_trip_expect_cached(tmp_path):
    spec = make_spec("fib", 2, quick=True)
    JobRunner(manifest_dir=tmp_path).run_checked([spec])
    runner = JobRunner(manifest_dir=tmp_path)
    runner.run_checked([spec])
    assert runner.stats.uncached == 0, \
        "resumed completions are not cold-cache evidence"


def test_manifest_append_failures_are_counted_not_raised(tmp_path,
                                                         monkeypatch):
    specs = _specs()
    manifest = CampaignManifest.for_specs(tmp_path, specs)
    record = RunRecord(spec_digest=specs[0].digest, label="fib-flex1",
                       cycles=1, clock_mhz=100.0)

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("builtins.open", boom)
    manifest.record(specs[0], record)   # must not raise
    assert manifest.dropped_appends == 1
    assert manifest.appended == 0
