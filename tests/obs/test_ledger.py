"""RunLedger: appends, durability, queries, renderers."""

import json

import pytest

from repro.exec import JobRunner, ResultCache, make_spec
from repro.obs.ledger import (
    RunLedger,
    default_ledger_dir,
    hit_trend,
    host_fingerprint,
    render_recent,
    render_slowest,
    render_trend,
    slowest_jobs,
)


def test_default_ledger_dir_under_cache_root(tmp_path):
    assert default_ledger_dir(tmp_path) == tmp_path / "ledger"


def test_host_fingerprint_is_stable():
    fp = host_fingerprint()
    assert fp is host_fingerprint()
    assert set(fp) == {"host", "platform", "python", "cpus"}


def test_append_and_entries_roundtrip(tmp_path):
    ledger = RunLedger(tmp_path)
    ledger.append({"digest": "abc", "ts": 1.0})
    ledger.append({"digest": "def", "ts": 2.0})
    entries = ledger.entries()
    assert [e["digest"] for e in entries] == ["abc", "def"]
    # Session, host, and version are stamped on every line.
    assert all(e["session"] == ledger.session for e in entries)
    assert all(e["v"] == 1 for e in entries)
    assert entries[0]["host"]["cpus"] >= 1
    assert ledger.appended == 2


def test_corrupt_lines_skipped(tmp_path):
    ledger = RunLedger(tmp_path)
    ledger.append({"digest": "good"})
    with open(ledger.path, "a") as handle:
        handle.write("{truncated\n")
        handle.write('"not-a-dict"\n')
        handle.write('{"no_digest": 1}\n')
    ledger.append({"digest": "also-good"})
    assert [e["digest"] for e in ledger.entries()] == ["good", "also-good"]


def test_entries_limit_keeps_newest(tmp_path):
    ledger = RunLedger(tmp_path)
    for i in range(5):
        ledger.append({"digest": str(i)})
    assert [e["digest"] for e in ledger.entries(limit=2)] == ["3", "4"]


def test_entries_limit_zero_keeps_none(tmp_path):
    ledger = RunLedger(tmp_path)
    for i in range(3):
        ledger.append({"digest": str(i)})
    assert ledger.entries(limit=0) == []
    assert [e["digest"] for e in ledger.entries(limit=5)] == ["0", "1", "2"]
    with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
        ledger.entries(limit=-1)


def test_entries_empty_when_missing(tmp_path):
    assert RunLedger(tmp_path / "nope").entries() == []
    assert RunLedger(tmp_path / "nope").estimate_seconds() is None


def test_runner_records_jobs(tmp_path):
    ledger = RunLedger(tmp_path / "ledger")
    runner = JobRunner(cache=ResultCache(tmp_path), ledger=ledger)
    spec = make_spec("fib", 1, quick=True)
    runner.run_checked([spec])
    (entry,) = ledger.entries()
    assert entry["digest"] == spec.digest
    assert entry["label"] == "fib-flex1"
    assert entry["benchmark"] == "fib" and entry["num_pes"] == 1
    assert entry["cached"] is False and entry["ok"] is True
    assert entry["run_seconds"] > 0
    assert entry["cycles"] > 0
    assert len(entry["salt"]) == 16

    # A warm rerun under a fresh session ledgered as a cache hit.
    warm_ledger = RunLedger(tmp_path / "ledger")
    warm = JobRunner(cache=ResultCache(tmp_path), ledger=warm_ledger)
    warm.run_checked([spec])
    entries = warm_ledger.entries()
    assert len(entries) == 2
    assert entries[1]["cached"] is True
    assert entries[1]["session"] != entries[0]["session"]


def test_manifest_served_jobs_report_as_resumed(tmp_path, capsys):
    """A ``--no-cache --resume`` rerun serves every job from the
    campaign manifest: its progress lines and ledger entries say
    resumed, and the ledger's queries count no cache hit."""
    from repro.exec import StderrProgress

    specs = [make_spec("fib", n, quick=True) for n in (1, 2)]
    manifests = tmp_path / "manifests"
    JobRunner(manifest_dir=manifests).run_checked(specs)
    ledger = RunLedger(tmp_path / "ledger")
    runner = JobRunner(manifest_dir=manifests, ledger=ledger,
                       progress=StderrProgress())
    runner.run_checked(specs)
    assert runner.stats.resumed == 2 and runner.stats.cached == 0
    assert capsys.readouterr().err.splitlines() == [
        "[1/2] fib-flex1: resumed", "[2/2] fib-flex2: resumed"]
    entries = ledger.entries()
    assert [(e["cached"], e["resumed"]) for e in entries] == [
        (False, True), (False, True)]
    rows = render_recent(entries).splitlines()[2:]
    assert len(rows) == 2 and all(" resumed " in row for row in rows)
    (trend,) = hit_trend(entries)
    assert trend["cached"] == 0 and trend["hit_rate"] == 0.0
    assert slowest_jobs(entries) == []


def test_failed_job_ledgered_with_error(tmp_path):
    ledger = RunLedger(tmp_path)
    runner = JobRunner(ledger=ledger)
    runner.run([make_spec("fib", 2, quick=True, max_cycles=100)])
    (entry,) = ledger.entries()
    assert entry["ok"] is False
    assert entry["error"] == "DeadlockError"
    assert entry["timed_out"] is False
    assert "cycles" not in entry


def test_estimate_seconds_ignores_cached(tmp_path):
    ledger = RunLedger(tmp_path)
    ledger.append({"digest": "a", "cached": False, "run_seconds": 2.0})
    ledger.append({"digest": "b", "cached": True, "run_seconds": 0.0})
    ledger.append({"digest": "c", "cached": False, "run_seconds": 4.0})
    assert ledger.estimate_seconds() == 3.0


def test_estimate_seconds_windows_executed_entries(tmp_path):
    """The window counts executed entries, not entries: five timed jobs
    followed by 200 cache hits still give their mean, and the window
    keeps only the newest executed ones."""
    ledger = RunLedger(tmp_path)
    for seconds in (1.0, 1.0, 1.5, 2.0, 2.0):
        ledger.append({"digest": "run", "cached": False,
                       "run_seconds": seconds})
    for _ in range(200):
        ledger.append({"digest": "hit", "cached": True, "run_seconds": 0.0})
    assert ledger.estimate_seconds() == 1.5
    assert ledger.estimate_seconds(window=2) == 2.0


def test_slowest_jobs_query():
    entries = [
        {"digest": "a", "cached": False, "run_seconds": 1.0},
        {"digest": "b", "cached": True, "run_seconds": 0.0},
        {"digest": "c", "cached": False, "run_seconds": 3.0},
        {"digest": "d", "cached": False, "run_seconds": 2.0},
    ]
    top = slowest_jobs(entries, n=2)
    assert [e["digest"] for e in top] == ["c", "d"]


def test_hit_trend_groups_sessions():
    entries = [
        {"digest": "a", "session": "s1", "ts": 1.0, "cached": False,
         "ok": True, "run_seconds": 2.0},
        {"digest": "b", "session": "s1", "ts": 2.0, "cached": False,
         "ok": False, "run_seconds": 1.0},
        {"digest": "a", "session": "s2", "ts": 3.0, "cached": True,
         "ok": True, "run_seconds": 0.0},
    ]
    rows = hit_trend(entries)
    assert [r["session"] for r in rows] == ["s1", "s2"]
    assert rows[0]["jobs"] == 2 and rows[0]["hit_rate"] == 0.0
    assert rows[0]["failed"] == 1
    assert rows[0]["run_seconds"] == 3.0
    assert rows[1]["hit_rate"] == 1.0


def test_renderers_produce_tables(tmp_path):
    ledger = RunLedger(tmp_path)
    runner = JobRunner(ledger=ledger)
    runner.run_checked([make_spec("fib", 1, quick=True)])
    entries = ledger.entries()
    assert "fib-flex1" in render_recent(entries)
    assert "fib-flex1" in render_slowest(entries)
    assert ledger.session in render_trend(entries)
    assert render_recent([]) == "(ledger empty)"
    assert render_slowest([]) == "(no executed jobs in ledger)"
    assert render_trend([]) == "(ledger empty)"


def test_render_recent_zero_shows_no_rows():
    """``entries[-0:]`` is the whole list: N = 0 must still mean none."""
    entries = [{"label": f"job{i}", "ts": float(i)} for i in range(3)]
    table = render_recent(entries, 0)
    assert "when" in table and "label" in table
    assert not any(f"job{i}" in table for i in range(3))
    assert len(table.splitlines()) == 2  # header and rule only
    assert "job0" not in render_recent(entries, 2)
    assert "job2" in render_recent(entries, 2)


def test_appends_are_whole_lines(tmp_path):
    """Every line is independently parseable (single-write appends)."""
    ledger = RunLedger(tmp_path)
    for i in range(10):
        ledger.append({"digest": str(i)})
    for line in ledger.path.read_text().splitlines():
        assert json.loads(line)["v"] == 1
