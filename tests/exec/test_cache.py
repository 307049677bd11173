"""Result cache: content addressing, salt invalidation, corruption."""

import json

from repro.exec import JobRunner, ResultCache, make_spec
from repro.exec.cache import code_salt


def execute(spec, cache=None):
    """Run one job through the cache when given, raising on failure."""
    return JobRunner(cache=cache).run_checked([spec])[0]


def test_execute_round_trips_through_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = make_spec("fib", 2, quick=True)
    first = execute(spec, cache=cache)
    assert cache.puts == 1
    second = execute(spec, cache=cache)
    assert cache.hits == 1
    assert second.digest == first.digest
    assert second.cycles == first.cycles
    assert second.pe_stats == first.pe_stats
    assert second.counters == first.counters


def test_cache_layout_is_salt_then_digest(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    execute(spec, cache=cache)
    path = tmp_path / code_salt() / f"{spec.digest}.json"
    assert path.is_file()
    payload = json.loads(path.read_text())
    assert payload["salt"] == code_salt()
    assert payload["spec"]["benchmark"] == "fib"
    assert payload["record"]["spec_digest"] == spec.digest


def test_stale_salt_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    execute(spec, cache=cache)
    # Simulate a code change: move the entry to a different salt dir.
    entry = tmp_path / code_salt() / f"{spec.digest}.json"
    stale = tmp_path / ("0" * 16)
    stale.mkdir()
    entry.rename(stale / entry.name)
    assert cache.get(spec) is None


def test_corrupt_entry_is_a_miss_not_an_error(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    path = cache.put(spec, execute(spec))
    path.write_text("{truncated")
    assert cache.get(spec) is None
    assert cache.misses == 1


def test_wrong_digest_inside_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    a = make_spec("fib", 2, quick=True)
    b = make_spec("fib", 4, quick=True)
    record = execute(a)
    # File named for b but holding a's record: content check rejects it.
    (tmp_path / code_salt()).mkdir(parents=True)
    cache._path(b).write_text(json.dumps({
        "salt": code_salt(), "spec": a.canonical_dict(),
        "record": record.to_dict(),
    }))
    assert cache.get(b) is None


def test_runner_resumes_interrupted_campaign(tmp_path):
    """Half-cached batches only simulate the missing half."""
    cache = ResultCache(tmp_path)
    specs = [make_spec("fib", n, quick=True) for n in (1, 2)]
    JobRunner(cache=cache).run_checked(specs[:1])

    runner = JobRunner(cache=cache)
    runner.run_checked(specs)
    assert runner.stats.cached == 1
    assert runner.stats.executed == 1


def test_cache_stats_in_repr(tmp_path):
    cache = ResultCache(tmp_path)
    assert "0 hits" in repr(cache)


# -- self-healing: checksum, quarantine, verify/repair ------------------

def test_entries_carry_content_checksum(tmp_path):
    from repro.exec import record_checksum

    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    path = cache.put(spec, execute(spec))
    payload = json.loads(path.read_text())
    assert payload["checksum"] == record_checksum(payload["record"])


def test_bitflip_inside_valid_json_is_caught(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    path = cache.put(spec, execute(spec))
    # Damage a digit inside the record: still valid JSON, wrong bytes.
    payload = json.loads(path.read_text())
    payload["record"]["cycles"] += 1
    path.write_text(json.dumps(payload))
    assert cache.get(spec) is None, \
        "a parseable-but-damaged record must not be served"
    assert cache.quarantined == 1


def test_corrupt_entry_is_quarantined_for_postmortem(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    path = cache.put(spec, execute(spec))
    path.write_text("{truncated")
    assert cache.get(spec) is None
    assert not path.exists(), "corrupt entries must be moved, not left"
    moved = tmp_path / "quarantine" / code_salt() / path.name
    assert moved.is_file()
    assert moved.read_text() == "{truncated", \
        "quarantine preserves the damaged bytes for post-mortem"


def test_non_utf8_entry_is_quarantined_not_raised(tmp_path):
    """A high-bit flip makes the entry undecodable, not just unparseable."""
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    path = cache.put(spec, execute(spec))
    data = path.read_bytes()
    path.write_bytes(data[:10] + bytes([data[10] ^ 0x80]) + data[11:])
    assert cache.get(spec) is None, "get() never raises, even on bad UTF-8"
    assert cache.quarantined == 1
    assert cache.io_errors == 0, "bad bytes are corruption, not I/O"


def test_verify_and_repair_survive_non_utf8_entries(tmp_path):
    cache = ResultCache(tmp_path)
    specs = [make_spec("fib", n, quick=True) for n in (1, 2)]
    paths = [cache.put(s, execute(s)) for s in specs]
    paths[0].write_bytes(b'{"record": "\xff\xfe"}')
    valid, corrupt = cache.verify()
    assert valid == 1
    assert [p for p, _ in corrupt] == [paths[0]]
    valid, moved = cache.repair()
    assert valid == 1 and len(moved) == 1


def test_healed_entry_is_bit_identical(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    original = execute(spec, cache=cache)
    cache._path(spec).write_text("garbage")
    healed = execute(spec, cache=cache)   # miss -> re-simulate -> put
    assert healed.digest == original.digest
    assert cache.get(spec).digest == original.digest


def test_verify_reports_corruption_without_touching_it(tmp_path):
    cache = ResultCache(tmp_path)
    specs = [make_spec("fib", n, quick=True) for n in (1, 2, 3)]
    paths = [cache.put(s, execute(s)) for s in specs]
    paths[1].write_text("{nope")
    valid, corrupt = cache.verify()
    assert valid == 2
    assert [p for p, _ in corrupt] == [paths[1]]
    assert paths[1].exists(), "verify is read-only"


def test_repair_quarantines_only_the_corrupt(tmp_path):
    cache = ResultCache(tmp_path)
    specs = [make_spec("fib", n, quick=True) for n in (1, 2, 3)]
    paths = [cache.put(s, execute(s)) for s in specs]
    paths[0].write_text("{nope")
    valid, moved = cache.repair()
    assert valid == 2 and len(moved) == 1
    assert not paths[0].exists()
    assert paths[1].exists() and paths[2].exists()
    # Quarantined entries never rejoin verification sweeps.
    assert cache.verify() == (2, [])


def test_put_is_best_effort_on_io_error(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    record = execute(spec)

    import tempfile as tempfile_mod

    def full_disk(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(tempfile_mod, "mkstemp", full_disk)
    assert cache.put(spec, record) is None   # dropped, not raised
    assert cache.io_errors == 1
    assert cache.puts == 0


def test_cli_cache_verify_and_repair(tmp_path, capsys):
    from repro.cli import main

    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    path = cache.put(spec, execute(spec))
    assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0

    path.write_text("{nope")
    assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
    assert main(["cache", "repair", "--cache-dir", str(tmp_path)]) == 0
    assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "quarantined" in out
