"""Result cache: content addressing, salt invalidation, corruption."""

import dataclasses
import json
import os

import pytest

from repro.exec import JobRunner, ResultCache, make_spec, record_checksum
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
        "salt": code_salt(), "spec": json.loads(a.canonical_json()),
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


def test_entry_is_compact_sorted_json_checksummed_by_the_record_digest(
        tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    record = execute(spec)
    data = cache.put(spec, record).read_bytes()
    payload = json.loads(data)
    assert data == json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    assert payload["checksum"] == record.digest
    assert payload == {"salt": code_salt(),
                       "spec": json.loads(spec.canonical_json()),
                       "record": record.to_dict(), "checksum": record.digest}


def test_digit_change_inside_stored_record_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    record = execute(spec)
    path = cache.put(spec, record)
    data = path.read_bytes()
    # The last digit of the cycle count, in place: same length, still
    # valid JSON, the entry's layout intact.
    field = b'"cycles":%d' % record.cycles
    at = data.index(field) + len(field) - 1
    digit = b"%d" % ((data[at] - ord("0") + 1) % 10)
    path.write_bytes(data[:at] + digit + data[at + 1:])
    assert json.loads(path.read_bytes())["checksum"] == record.digest
    assert cache.verify() == (0, [(path, f"{path.name}: checksum mismatch")])
    assert cache.get(spec) is None
    assert cache.quarantined == 1 and cache.misses == 1


def test_put_entries_are_served_without_the_layout_agnostic_check(
        tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    record = execute(spec)
    cache.put(spec, record)

    def unexpected(*args):
        raise AssertionError("an entry put() wrote took the slow check")

    monkeypatch.setattr("repro.exec.cache._check_entry", unexpected)
    assert cache.get(spec).digest == record.digest


@pytest.mark.parametrize("damage", [
    lambda data: data.replace(b'"record":', b'"recorX":', 1),
    lambda data: data[:-1] + b" ",
])
def test_damaged_framing_around_an_intact_record_is_quarantined(
        tmp_path, damage):
    # Record bytes and checksum intact, the entry no longer JSON with a
    # "record" key: a corrupt entry, as the layout-agnostic check says.
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    path = cache.put(spec, execute(spec))
    path.write_bytes(damage(path.read_bytes()))
    assert cache.get(spec) is None
    assert cache.quarantined == 1


@pytest.mark.parametrize("field", [b'{"checksum":"', b'"record":'])
def test_high_bit_flip_in_checksum_or_record_is_a_quarantined_miss(
        tmp_path, field):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    path = cache.put(spec, execute(spec))
    data = path.read_bytes()
    at = data.index(field) + len(field) + 5
    path.write_bytes(data[:at] + bytes([data[at] ^ 0x80]) + data[at + 1:])
    assert cache.get(spec) is None, "get() never raises, even on bad UTF-8"
    assert cache.quarantined == 1 and cache.misses == 1
    assert cache.io_errors == 0, "bad bytes are corruption, not I/O"


def test_foreign_record_in_the_put_layout_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    a = make_spec("fib", 2, quick=True)
    b = make_spec("fib", 4, quick=True)
    record = execute(a)
    # a's record, checksum intact, framed exactly as put() frames b's.
    path = cache._path(b)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({
        "salt": code_salt(), "spec": json.loads(b.canonical_json()),
        "record": record.to_dict(), "checksum": record.digest,
    }, sort_keys=True, separators=(",", ":")))
    assert cache.get(b) is None
    assert cache.quarantined == 1


def test_indented_entry_under_the_current_salt_is_served(tmp_path):
    """An indented entry, in a layout other than put()'s, passes the
    layout-agnostic check."""
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    record = execute(spec)
    path = cache._path(spec)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({
        "salt": code_salt(), "spec": json.loads(spec.canonical_json()),
        "record": record.to_dict(),
        "checksum": record_checksum(record.to_dict()),
    }, sort_keys=True, indent=1))
    assert cache.verify() == (1, [])
    served = cache.get(spec)
    assert served is not None and served.digest == record.digest
    assert cache.hits == 1 and cache.quarantined == 0


@pytest.mark.parametrize("reads", ["as_sized", "short", "grown"])
def test_entry_larger_than_one_read_round_trips(tmp_path, monkeypatch,
                                                reads):
    """An entry of a few hundred KB is served whole by get() and passes
    the offline check, also when it takes many reads: reads that return
    less than asked, or a file longer than its fstat said."""
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    record = dataclasses.replace(execute(spec), jobs=[
        {"job": i, "tenant": "t", "arrival": 3 * i, "injected": 3 * i,
         "admitted": 3 * i + 1, "completed": 5 * i + 7,
         "latency": 2 * i + 7} for i in range(4000)])
    path = cache.put(spec, record)
    assert path.stat().st_size > 256 * 1024
    sizes = []
    read, fstat = os.read, os.fstat

    def counted_read(fd, n):
        data = read(fd, min(n, 4096) if reads == "short" else n)
        sizes.append(len(data))
        return data

    class _Understated:
        def __init__(self, fd):
            self.st_size = fstat(fd).st_size // 100

    monkeypatch.setattr(os, "read", counted_read)
    if reads == "grown":
        monkeypatch.setattr(os, "fstat", _Understated)
    served = cache.get(spec)
    assert served == record and served.digest == record.digest
    assert cache.hits == 1 and cache.quarantined == 0
    assert cache.verify() == (1, [])
    monkeypatch.undo()
    assert sum(sizes) == 2 * path.stat().st_size and sizes[-1] == 0
    assert (len(sizes) == 4) == (reads == "as_sized")


def test_directory_at_an_entry_path_is_an_io_miss(tmp_path):
    """An entry path that cannot be read is an I/O error, counted as a
    miss: not corruption, so nothing is moved aside."""
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    path = cache._path(spec)
    path.mkdir(parents=True)
    fds = len(os.listdir("/dev/fd"))
    for _ in range(20):
        assert cache.get(spec) is None
    assert len(os.listdir("/dev/fd")) == fds, "a failed read leaks no fd"
    assert (cache.misses, cache.io_errors, cache.quarantined) == (20, 20, 0)
    assert cache.hits == 0 and path.is_dir()
    valid, corrupt = cache.verify()
    assert valid == 0
    assert [(p, reason.split(":")[0]) for p, reason in corrupt] == \
        [(path, "unreadable")]


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


def test_repair_leaves_an_unreadable_entry_in_place(tmp_path):
    """An entry whose read fails is an I/O error, as it is to ``get``:
    repair moves only what fails the check, and verify still lists the
    entry it could not read."""
    cache = ResultCache(tmp_path)
    specs = [make_spec("fib", n, quick=True) for n in (1, 2, 3)]
    paths = [cache.put(s, execute(s)) for s in specs[:2]]
    paths[0].write_text("{nope")
    unreadable = cache._path(specs[2])
    unreadable.mkdir()
    valid, moved = cache.repair()
    assert valid == 1 and len(moved) == 1
    assert not paths[0].exists() and unreadable.is_dir()
    assert cache.quarantined == 1
    valid, corrupt = cache.verify()
    assert valid == 1
    assert [(p, reason.split(":")[0]) for p, reason in corrupt] == \
        [(unreadable, "unreadable")]


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
