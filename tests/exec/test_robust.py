"""unit_roll and CampaignManifest checkpoint/resume."""

import json
import re

import pytest

from repro.exec import (
    CampaignManifest,
    JobFailure,
    JobRunner,
    RunRecord,
    campaign_id,
    make_spec,
    unit_roll,
)


def _failure(kind, digest="d" * 32):
    return JobFailure(spec_digest=digest, label="fib-flex2",
                      error_type="X", message="m", kind=kind)


# -- unit_roll ----------------------------------------------------------

def test_unit_roll_deterministic_and_uniformish():
    assert unit_roll(1, "a", 0) == unit_roll(1, "a", 0)
    assert unit_roll(1, "a", 0) != unit_roll(1, "a", 1)
    draws = [unit_roll(7, "x", i) for i in range(200)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.3 < sum(draws) / len(draws) < 0.7


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
    manifest.record(specs[0], _failure("crash", specs[0].digest))
    manifest.record(specs[1], _failure("sim-error", specs[1].digest))
    reloaded = CampaignManifest.for_specs(tmp_path, specs)
    assert reloaded.completed(specs[0].digest) is None, \
        "a healthier host may not crash: re-run it"
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


def test_pooled_crash_is_final_and_reruns_on_resume(tmp_path, monkeypatch):
    """A job that raises outside the simulation comes back as a crash
    after one attempt, its siblings complete, and the next run of the
    batch serves the siblings from the manifest and simulates only it."""
    import repro.exec.runner as runner_mod

    specs = [make_spec("fib", n, quick=True) for n in (2, 3, 4)]
    doomed = specs[1].digest
    attempts = tmp_path / "attempts"
    run_job = runner_mod._run_job

    def crashes(spec):
        if spec.digest == doomed:
            with open(attempts, "a") as handle:
                handle.write("x")
            raise OSError("host fault outside the simulation")
        return run_job(spec)

    monkeypatch.setattr(runner_mod, "_run_job", crashes)
    manifest_dir = tmp_path / "manifests"
    first = JobRunner(jobs=2, manifest_dir=manifest_dir)
    outcomes = first.run(specs)
    crash = outcomes[1]
    assert not crash.ok and crash.kind == "crash"
    assert crash.error_type == "OSError"
    assert attempts.read_text() == "x", "a failure is final: one attempt"
    assert outcomes[0].ok and outcomes[2].ok
    assert first.stats.executed == 2 and first.stats.failed == 1
    assert first.stats.pool_restarts == 0

    monkeypatch.setattr(runner_mod, "_run_job", run_job)
    second = JobRunner(jobs=2, manifest_dir=manifest_dir)
    records = second.run_checked(specs)
    assert second.stats.resumed == 2 and second.stats.executed == 1
    assert records[1].spec_digest == doomed
    assert [records[0].digest, records[2].digest] == \
        [outcomes[0].digest, outcomes[2].digest]


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
