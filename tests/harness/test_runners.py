"""Tests for the experiment run helpers."""

import pytest

from repro.core.exceptions import ConfigError
from repro.harness.runners import (
    QUICK_PARAMS,
    VerificationError,
    bench_params,
    run_cpu,
    run_flex,
    run_lite,
    run_zynq_cpu,
    run_zynq_flex,
)
from repro.workers import PAPER_BENCHMARKS


def test_quick_params_cover_all_benchmarks():
    for name in PAPER_BENCHMARKS + ("fib",):
        assert name in QUICK_PARAMS


def test_bench_params_merging():
    params = bench_params("fib", quick=True, overrides={"n": 5})
    assert params == {"n": 5}
    assert bench_params("fib", quick=False) == {}
    assert bench_params("fib", quick=True) == QUICK_PARAMS["fib"]


def test_run_flex_labels_and_verifies():
    result = run_flex("fib", 2, quick=True)
    assert result.label == "fib-flex2"
    assert result.value is not None


def test_run_cpu_clock_domain():
    result = run_cpu("fib", 1, quick=True)
    assert result.clock_mhz == 1000.0


def test_run_lite_requires_port():
    with pytest.raises(ConfigError, match="no LiteArch implementation"):
        run_lite("cilksort", 2, quick=True)


@pytest.mark.parametrize("engine", ["lite", "cpu", "zynq-cpu"])
def test_faults_rejected_where_the_engine_cannot_inject_them(engine):
    """Only flex and zynq attach a fault plan; simulating a faulted spec
    elsewhere would file a fault-free record under the faulted spec."""
    from repro.exec import make_spec, simulate
    from repro.resil.faults import FaultSpec

    spec = make_spec("queens", 2, engine=engine, quick=True,
                     faults=FaultSpec(steal_delay_rate=0.5,
                                      arg_delay_rate=0.5),
                     park_idle_pes=False)
    with pytest.raises(ConfigError, match="cannot inject faults"):
        simulate(spec)


def test_run_zynq_flex_uses_fabric_clock():
    result = run_zynq_flex("queens", 2, quick=True)
    assert result.clock_mhz == 100.0


def test_run_zynq_cpu_uses_a9_clock():
    result = run_zynq_cpu("queens", 2, quick=True)
    assert result.clock_mhz == pytest.approx(667.0)


def test_config_overrides_forwarded():
    small = run_flex("fib", 2, quick=True, l1_size=4 * 1024)
    assert small.value == run_flex("fib", 2, quick=True).value


def test_verification_error_raised_on_bad_worker(monkeypatch):
    from repro.workers.fib import FibBenchmark

    monkeypatch.setattr(FibBenchmark, "verify", lambda self, v: False)
    with pytest.raises(VerificationError):
        run_flex("fib", 2, quick=True)


def test_warm_l2_applied_for_resident_benchmarks():
    # quicksort is L2-resident: a full run must never touch DRAM beyond
    # prefetch/writeback noise when the dataset was warmed.
    result = run_flex("quicksort", 2, quick=True)
    assert result.mem_summary["l2_misses"] == 0


def test_cold_benchmarks_reach_dram():
    result = run_flex("spmvcrs", 2, quick=True)
    assert result.mem_summary["dram_requests"] > 0
