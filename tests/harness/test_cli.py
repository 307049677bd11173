"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "uts" in out and "table4" in out and "fig9" in out


def test_run_benchmark(capsys):
    assert main(["run", "fib", "--engine", "flex", "--pes", "2"]) == 0
    out = capsys.readouterr().out
    assert "fib-flex2" in out and "verified" in out


def test_run_cpu_engine(capsys):
    assert main(["run", "queens", "--engine", "cpu", "--pes", "2"]) == 0
    assert "queens-cpu2" in capsys.readouterr().out


def test_run_stats_flag(capsys):
    assert main(["run", "fib", "--pes", "2", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "counters:" in out
    assert "steal_requests" in out


def test_run_without_stats_omits_counters(capsys):
    assert main(["run", "fib", "--pes", "2"]) == 0
    assert "counters:" not in capsys.readouterr().out


def test_run_trace_flag_writes_perfetto_json(tmp_path, capsys):
    import json

    path = tmp_path / "trace.json"
    assert main(["run", "fib", "--pes", "2", "--trace", str(path)]) == 0
    assert "trace: wrote" in capsys.readouterr().out
    document = json.loads(path.read_text())
    phases = {e["ph"] for e in document["traceEvents"]}
    assert {"M", "X", "i", "C"} <= phases


def test_report_command(capsys):
    assert main(["report", "fib", "--pes", "2", "--epochs", "4"]) == 0
    out = capsys.readouterr().out
    assert "latency decomposition" in out
    assert "critical path" in out
    assert "time series" in out


def test_table_commands(capsys):
    assert main(["table1"]) == 0
    assert "Work-Stealing" in capsys.readouterr().out
    assert main(["table2"]) == 0
    assert "bfsqueue" in capsys.readouterr().out
    assert main(["table5"]) == 0
    assert "flexPE.lut" in capsys.readouterr().out


def test_fig9_quick(capsys):
    assert main(["fig9"]) == 0
    assert "Figure 9" in capsys.readouterr().out


def test_run_max_cycles_flag(capsys):
    assert main(["run", "fib", "--pes", "2",
                 "--max-cycles", "10000000"]) == 0
    assert "verified" in capsys.readouterr().out


def test_run_watchdog_flag(capsys):
    assert main(["run", "fib", "--pes", "2", "--watchdog", "5000"]) == 0
    assert "verified" in capsys.readouterr().out


def test_faults_command(capsys):
    assert main(["faults", "--pes", "2", "--rates", "0.005",
                 "--seeds", "0xBEEF", "--require-recovery"]) == 0
    out = capsys.readouterr().out
    assert "fault-injection campaign" in out
    assert "recovered" in out


def test_dse_command(tmp_path, capsys):
    out = tmp_path / "dse.json"
    assert main(["dse", "fib", "--pes", "1,2,4", "--points", "32",
                 "--budget-watts", "2.0", "--no-cache",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "design-space map" in printed
    assert "re-validated with the cycle simulator" in printed
    assert "analytical-vs-simulated ns error" in printed
    assert "model time" in printed
    assert out.exists()


def test_expect_cached_fails_when_a_job_fails_on_warm_cache(
        tmp_path, capsys, monkeypatch):
    """Regression: failed jobs bump ``stats.failed`` but never
    ``stats.executed`` (and are never cached), so a warm-cache batch
    that re-simulated *and failed* used to sail through the
    ``--expect-cached`` SLO gate."""
    from repro.exec import runner as runner_mod
    from repro.exec.record import JobFailure

    real_run_job = runner_mod._run_job

    def failing(spec, timeout):
        if spec.faults is not None:
            return JobFailure(spec.digest, spec.label, "DeadlockError",
                              "injected test failure", parallelxl=True)
        return real_run_job(spec, timeout)

    monkeypatch.setattr(runner_mod, "_run_job", failing)
    cache_dir = str(tmp_path / "cache")
    argv = ["faults", "--pes", "2", "--rates", "0.002",
            "--seeds", "0xBEEF", "--cache-dir", cache_dir]
    # Cold run: the baseline simulates and caches; the fault job fails
    # (diagnosed), so nothing of it is cached.
    assert main(argv) == 0
    capsys.readouterr()
    # Warm run: baseline served from cache, the fault job re-simulates
    # and fails again — the cache was NOT warm, the gate must trip.
    assert main(argv + ["--expect-cached"]) == 1
    captured = capsys.readouterr()
    assert "--expect-cached" in captured.err
    assert "failed" in captured.err


def test_expect_cached_passes_on_truly_warm_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["faults", "--pes", "2", "--rates", "0.002",
            "--seeds", "0xBEEF", "--cache-dir", cache_dir]
    assert main(argv) == 0
    assert main(argv + ["--expect-cached"]) == 0


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "fib", "--pes", "1,2", "--hops", "4,16",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "num_pes" in printed and "cycles" in printed
    assert "4 submitted" in printed
    import json

    records = json.loads(out.read_text())
    assert len(records) == 4
    assert {r["net_hop_cycles"] for r in records} == {4, 16}


def test_sweep_writes_ledger_and_metrics(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    metrics_path = tmp_path / "m.prom"
    argv = ["sweep", "fib", "--pes", "1,2", "--cache-dir", str(cache_dir),
            "--metrics", str(metrics_path)]
    assert main(argv) == 0
    assert "metrics: wrote" in capsys.readouterr().out
    text = metrics_path.read_text()
    assert "# TYPE exec_jobs_executed counter" in text
    assert "exec_jobs_executed 2" in text
    ledger_file = cache_dir / "ledger" / "runs.jsonl"
    assert ledger_file.is_file()
    assert len(ledger_file.read_text().splitlines()) == 2

    # Warm rerun: two more ledger lines, now cache hits.
    assert main(argv) == 0
    assert "2 cached" in capsys.readouterr().out
    assert len(ledger_file.read_text().splitlines()) == 4


def test_no_ledger_flag(tmp_path):
    cache_dir = tmp_path / "cache"
    assert main(["sweep", "fib", "--pes", "1", "--no-ledger",
                 "--cache-dir", str(cache_dir)]) == 0
    assert not (cache_dir / "ledger").exists()


def test_ledger_command(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["ledger", "--cache-dir", cache_dir]) == 0
    assert "ledger empty" in capsys.readouterr().out

    assert main(["sweep", "fib", "--pes", "1,2",
                 "--cache-dir", cache_dir]) == 0
    assert main(["sweep", "fib", "--pes", "1,2",
                 "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["ledger", "--cache-dir", cache_dir,
                 "--trend", "--slowest", "3", "--recent", "10"]) == 0
    out = capsys.readouterr().out
    assert "recent runs" in out and "fib-flex1" in out
    assert "slowest executed jobs" in out
    assert "cache-hit trend" in out
    # Two sessions: the cold campaign at 0% hits, the warm one at 100%.
    assert "0%" in out and "100%" in out


def test_profile_report_command(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["profile-report", "--cache-dir", cache_dir]) == 0
    assert "--profile" in capsys.readouterr().out

    assert main(["sweep", "fib", "--pes", "1", "--profile",
                 "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["profile-report", "--cache-dir", cache_dir,
                 "--top", "10"]) == 0
    out = capsys.readouterr().out
    assert "hot functions across 1 profiled job(s)" in out
    assert "engine" in out, "the sim engine loop must rank as hot"


def test_negative_retries_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "fib", "--pes", "1,2", "--jobs", "2",
              "--retries", "-3", "--no-cache"])
    assert exc.value.code == 2
    assert "--retries" in capsys.readouterr().err


def test_ledger_recent_zero_prints_no_entry(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "fib", "--pes", "1,2",
                 "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["ledger", "--cache-dir", cache_dir, "--recent", "0"]) == 0
    out = capsys.readouterr().out
    assert "recent runs" in out
    assert "fib-flex" not in out


@pytest.mark.parametrize("argv,flag", [
    (["ledger", "--slowest", "-2"], "--slowest"),
    (["ledger", "--recent", "-1"], "--recent"),
    (["profile-report", "--top", "-5"], "--top"),
])
def test_negative_counts_rejected(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cache-dir", str(tmp_path / "cache")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= 0" in err


@pytest.mark.parametrize("argv,message", [
    pytest.param(["run", "fib", "--pes", "7"],
                 "7 PEs not divisible into tiles of 4", id="pes-7"),
    pytest.param(["run", "fib", "--pes", "0"],
                 "need at least one PE: 0", id="pes-0"),
    pytest.param(["run", "fib", "--engine", "lite"],
                 "fib has no LiteArch implementation", id="fib-lite"),
    pytest.param(["run", "fib", "--arrivals", "2:x"],
                 "--arrivals must be RATE:N[:SEED], got '2:x'",
                 id="arrivals-2:x"),
    pytest.param(["run", "fib", "--engine", "cpu", "--arrivals", "2:8"],
                 "open-system workloads need the flex or zynq engine, "
                 "not 'cpu'", id="arrivals-cpu"),
])
def test_run_config_error_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"repro: error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv,error", [
    pytest.param(["open", "--num-jobs", "0", "--no-cache"],
                 "repro: error: need at least one job: 0",
                 id="open-num-jobs-0"),
    pytest.param(["open", "--window", "0", "--no-cache"],
                 "repro: error: admission window must be >= 1 (or None): 0",
                 id="open-window-0"),
    pytest.param(["dse", "--points", "0", "--no-cache"],
                 "repro: error: sample limit must be positive: 0",
                 id="dse-points-0"),
    pytest.param(["faults", "--pes", "0", "--no-cache"],
                 "repro: error: need at least one PE: 0", id="faults-pes-0"),
    pytest.param(["run", "fib", "--pes", "4", "--max-cycles", "-5"],
                 "repro: error: need a cycle budget of at least 1: -5",
                 id="run-max-cycles--5"),
    pytest.param(["sweep", "fib", "--jobs", "-3", "--no-cache"],
                 "repro sweep: error: argument --jobs: must be >= 1, got -3",
                 id="jobs--3"),
    pytest.param(["report", "fib", "--epochs", "0"],
                 "repro report: error: argument --epochs: must be >= 1, "
                 "got 0", id="report-epochs-0"),
])
def test_bad_numeric_input_ends_in_one_error_line(argv, error, capsys):
    try:
        status = main(argv)
    except SystemExit as exc:       # argparse rejected the value
        status = exc.code
    assert status == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == error
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["run", "report"])
def test_cycle_limit_prints_diagnosis_without_traceback(command, capsys):
    assert main([command, "fib", "--pes", "4", "--max-cycles", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "repro: error: simulation hit the 10-cycle limit")
    assert "pe0: parked" in err
    assert "Traceback" not in err


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nonesuch"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
