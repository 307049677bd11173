"""StderrProgress: per-batch rate measurement and ledger-seeded ETA."""

import re

import pytest

from repro.exec import StderrProgress, make_spec
from repro.exec.record import RunRecord


def _record(spec):
    return RunRecord(spec_digest=spec.digest, label=spec.label,
                     cycles=100, clock_mhz=150.0)


def _lines(capsys):
    return [line for line in capsys.readouterr().err.split("\n") if line]


class _FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _FakeClock()
    import repro.exec.runner as runner_mod

    monkeypatch.setattr(runner_mod.time, "perf_counter", fake)
    return fake


def test_progress_lines_and_tags(capsys, clock):
    progress = StderrProgress()
    spec = make_spec("fib", 2, quick=True)
    progress(1, 3, spec, _record(spec), "simulated")
    progress(2, 3, spec, _record(spec), "cache")
    failure = type("F", (), {"ok": False})()
    progress(3, 3, spec, failure, "simulated")
    lines = _lines(capsys)
    assert "[1/3] fib-flex2: ok" in lines[0]
    assert "[2/3] fib-flex2: cache" in lines[1]
    assert "[3/3] fib-flex2: FAIL" in lines[2]


def test_measured_rate_and_eta(capsys, clock):
    progress = StderrProgress()
    spec = make_spec("fib", 1, quick=True)
    progress(1, 5, spec, _record(spec), "simulated")
    clock.advance(2.0)          # 1 more job in 2s -> 0.5 jobs/s
    progress(2, 5, spec, _record(spec), "simulated")
    lines = _lines(capsys)
    assert "jobs/s" not in lines[0], "no rate before two data points"
    match = re.search(r"\((\d+\.\d) jobs/s, eta (\d+)s\)", lines[1])
    assert match, lines[1]
    assert float(match.group(1)) == 0.5
    assert int(match.group(2)) == 6     # 3 remaining / 0.5 jobs/s


def test_no_eta_on_final_job(capsys, clock):
    progress = StderrProgress()
    spec = make_spec("fib", 1, quick=True)
    progress(1, 2, spec, _record(spec), "simulated")
    clock.advance(1.0)
    progress(2, 2, spec, _record(spec), "simulated")
    assert "eta" not in _lines(capsys)[1]


def test_state_resets_between_batches(capsys, clock):
    progress = StderrProgress()
    spec = make_spec("fib", 1, quick=True)
    progress(1, 2, spec, _record(spec), "simulated")
    clock.advance(1.0)
    progress(2, 2, spec, _record(spec), "simulated")
    # New batch: done restarts at 1; the old rate must not leak in.
    progress(1, 4, spec, _record(spec), "simulated")
    assert "jobs/s" not in _lines(capsys)[2]


class _StubLedger:
    def __init__(self, estimate):
        self._estimate = estimate

    def estimate_seconds(self):
        if isinstance(self._estimate, Exception):
            raise self._estimate
        return self._estimate


def test_ledger_hint_seeds_first_eta(capsys, clock):
    progress = StderrProgress(ledger=_StubLedger(0.5))  # 2 jobs/s prior
    spec = make_spec("fib", 1, quick=True)
    progress(1, 5, spec, _record(spec), "simulated")
    line = _lines(capsys)[0]
    match = re.search(r"\((\d+\.\d) jobs/s, eta (\d+)s\)", line)
    assert match, line
    assert float(match.group(1)) == 2.0
    assert int(match.group(2)) == 2     # 4 remaining / 2 jobs/s


@pytest.mark.parametrize("source", ["cache", "resumed"])
def test_ledger_hint_is_not_the_pace_of_a_hit(capsys, clock, source):
    """The ledger's mean is a simulated job's time: a batch whose first
    completion simulated nothing prints no rate or ETA from it."""
    progress = StderrProgress(ledger=_StubLedger(0.5))
    spec = make_spec("fib", 1, quick=True)
    progress(1, 5, spec, _record(spec), source)
    clock.advance(0.25)
    progress(2, 5, spec, _record(spec), "simulated")
    first, second = _lines(capsys)
    assert first == f"[1/5] fib-flex1: {source}"
    match = re.search(r"\((\d+\.\d) jobs/s, eta (\d+)s\)", second)
    assert match and float(match.group(1)) == 4.0, second


def test_ledger_failure_is_not_fatal(capsys, clock):
    progress = StderrProgress(ledger=_StubLedger(OSError("disk gone")))
    spec = make_spec("fib", 1, quick=True)
    progress(1, 2, spec, _record(spec), "simulated")
    assert "[1/2] fib-flex1: ok" in _lines(capsys)[0]


def test_measured_rate_wins_over_hint(capsys, clock):
    progress = StderrProgress(ledger=_StubLedger(100.0))  # terrible prior
    spec = make_spec("fib", 1, quick=True)
    progress(1, 4, spec, _record(spec), "simulated")
    clock.advance(1.0)
    progress(2, 4, spec, _record(spec), "simulated")
    match = re.search(r"\((\d+\.\d) jobs/s", _lines(capsys)[1])
    assert match and float(match.group(1)) == 1.0


# -- retry / quarantine surfacing (docs/EXECUTION.md) -------------------

def test_retries_and_quarantines_surface_on_lines(capsys, clock):
    progress = StderrProgress()
    spec = make_spec("fib", 1, quick=True)
    progress(1, 3, spec, _record(spec), "simulated")
    assert "retried" not in _lines(capsys)[0], "quiet until nonzero"
    progress.note_retry()
    progress.note_retry()
    progress.note_retry()
    progress.note_quarantine()
    clock.advance(1.0)
    progress(2, 3, spec, _record(spec), "simulated")
    assert "[3 retried, 1 quarantined]" in _lines(capsys)[0]


def test_retried_attempts_do_not_inflate_the_rate(capsys, clock):
    """A retry burns wall-clock but completes nothing: the jobs/s on
    the next line must measure completions, not attempts."""
    progress = StderrProgress()
    spec = make_spec("fib", 1, quick=True)
    progress(1, 5, spec, _record(spec), "simulated")
    # Two failed attempts re-run over one second...
    progress.note_retry()
    clock.advance(0.5)
    progress.note_retry()
    clock.advance(0.5)
    # ...then one more second produces the second completion.
    clock.advance(1.0)
    progress(2, 5, spec, _record(spec), "simulated")
    line = _lines(capsys)[1]
    match = re.search(r"\((\d+\.\d) jobs/s, eta (\d+)s\)", line)
    assert match, line
    assert float(match.group(1)) == 0.5     # 1 completion / 2s
    assert int(match.group(2)) == 6         # 3 remaining / 0.5 jobs/s
    assert "[2 retried]" in line


def test_health_counters_reset_at_batch_end(capsys, clock):
    progress = StderrProgress()
    spec = make_spec("fib", 1, quick=True)
    progress.note_retry()
    progress(1, 1, spec, _record(spec), "simulated")
    assert "[1 retried]" in _lines(capsys)[0]
    # Next batch starts clean.
    progress(1, 1, spec, _record(spec), "simulated")
    assert "retried" not in _lines(capsys)[0]
