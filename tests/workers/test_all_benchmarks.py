"""Cross-benchmark matrix: every benchmark on every engine verifies."""

import pytest

from repro.core.exceptions import ConfigError
from repro.core.executor import ReferenceScheduler, SerialExecutor
from repro.harness.runners import (
    bench_params,
    run_cpu,
    run_flex,
    run_lite,
    run_zynq_cpu,
    run_zynq_flex,
)
from repro.workers import PAPER_BENCHMARKS, make_benchmark

ALL = PAPER_BENCHMARKS + ("fib",)


def quick_bench(name):
    return make_benchmark(name, **bench_params(name, quick=True))


@pytest.mark.parametrize("name", ALL)
def test_serial_functional(name):
    bench = quick_bench(name)
    result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
    assert bench.verify(result.value), (name, result.value, bench.expected())


@pytest.mark.parametrize("name", ALL)
def test_reference_scheduler_4pes(name):
    bench = quick_bench(name)
    result = ReferenceScheduler(bench.flex_worker(), 4).run(bench.root_task())
    assert bench.verify(result.value)


@pytest.mark.parametrize("name", ALL)
def test_flex_engine(name):
    assert run_flex(name, 4, quick=True).value is not None or True


@pytest.mark.parametrize("name", ALL)
def test_flex_engine_verifies(name):
    run_flex(name, 4, quick=True)  # run_flex raises on a wrong result


@pytest.mark.parametrize("name", ALL)
def test_cpu_engine_verifies(name):
    run_cpu(name, 2, quick=True)


@pytest.mark.parametrize("name",
                         [b for b in PAPER_BENCHMARKS if b != "cilksort"])
def test_lite_engine_verifies(name):
    run_lite(name, 4, quick=True)


def test_cilksort_has_no_lite():
    with pytest.raises(ConfigError):
        run_lite("cilksort", 4, quick=True)


@pytest.mark.parametrize("name", ("nw", "queens", "spmvcrs"))
def test_zedboard_engines_verify(name):
    run_zynq_flex(name, 4, quick=True)
    run_zynq_cpu(name, 2, quick=True)


@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_table2_metadata_complete(name):
    bench = quick_bench(name)
    assert bench.parallelization in ("cp", "fj", "pf")
    assert bench.memory_pattern in ("regular", "irregular")
    assert bench.memory_intensity in ("low", "medium", "high")
    assert isinstance(bench.has_lite, bool)


@pytest.mark.parametrize("name", ALL)
def test_fresh_instances_are_independent(name):
    a = quick_bench(name)
    b = quick_bench(name)
    assert a is not b
    assert a.mem is not b.mem


def test_unknown_benchmark_rejected():
    with pytest.raises(KeyError):
        make_benchmark("does-not-exist")
