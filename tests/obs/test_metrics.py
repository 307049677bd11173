"""MetricsRegistry: instruments, exporters, determinism guarantees."""

import json
import math

import pytest

from repro.obs.metrics import (
    CYCLES_BUCKETS,
    Histogram,
    MetricsRegistry,
    record_metrics,
)


def test_counter_and_gauge_basics():
    reg = MetricsRegistry()
    reg.counter("jobs", "help text").inc()
    reg.counter("jobs").inc(4)
    reg.gauge("depth").set(7)
    reg.gauge("depth").set(3)
    assert reg.counters["jobs"].value == 5
    assert reg.gauges["depth"].value == 3


def test_registry_get_or_create_reuses_instruments():
    reg = MetricsRegistry()
    assert reg.counter("c") is reg.counter("c")
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")
    # First registration's options win; later calls may omit them.
    h = reg.histogram("h2", buckets=(1, 2), help="first")
    assert reg.histogram("h2") is h
    assert h.buckets == (1, 2)


def test_histogram_fixed_buckets_and_overflow():
    h = Histogram("lat", buckets=(1, 10, 100))
    for sample in (0.5, 5, 50, 500):
        h.record(sample)
    assert h.bucket_counts == [1, 1, 1, 1]    # one overflow slot
    assert h.cumulative_buckets() == [
        (1, 1), (10, 2), (100, 3), (math.inf, 4)
    ]


def test_histogram_inherits_sample_statistics():
    h = Histogram("lat", buckets=(10,))
    for sample in (1, 2, 3, 4, 5):
        h.record(sample)
    assert h.count == 5
    assert h.mean == 3.0
    assert h.percentile(50) == 3.0
    summary = h.summary()
    assert summary["count"] == 5 and summary["sum"] == 15
    assert summary["p50"] == 3.0
    assert summary["buckets"] == {"10": 5, "+Inf": 5}


def test_histogram_requires_buckets():
    with pytest.raises(ValueError):
        Histogram("empty", buckets=())


def test_histogram_merge_rebuckets_foreign_samples():
    other = Histogram("src", buckets=(1,))
    for sample in (1, 50, 5000):
        other.record(sample)
    h = Histogram("dst", buckets=(10, 100))
    h.merge(other)
    assert h.count == 3
    assert h.bucket_counts == [1, 1, 1]


# -- raw-sample statistics ---------------------------------------------


def test_histogram_summary():
    h = Histogram("lat")
    for sample in (2, 8, 5):
        h.record(sample)
    assert h.count == 3
    assert h.mean == 5.0
    assert h.minimum == 2
    assert h.maximum == 8


def test_histogram_empty_mean():
    assert Histogram("e").mean == 0.0


def test_histogram_empty_extremes():
    h = Histogram("e")
    assert h.count == 0
    assert h.minimum is None
    assert h.maximum is None


def test_histogram_single_sample():
    h = Histogram("one")
    h.record(7)
    assert (h.count, h.mean, h.minimum, h.maximum) == (1, 7.0, 7, 7)


def test_histogram_negative_and_zero_samples():
    h = Histogram("z")
    h.record(0)
    h.record(-3)
    assert h.minimum == -3
    assert h.maximum == 0


def test_histogram_percentiles_nearest_rank():
    h = Histogram("p")
    for sample in range(1, 101):      # 1..100
        h.record(sample)
    assert h.percentile(50) == 50
    assert h.percentile(95) == 95
    assert h.percentile(99) == 99
    assert h.percentile(100) == 100
    assert h.percentiles() == {"p50": 50.0, "p95": 95.0, "p99": 99.0}


def test_histogram_percentile_small_and_empty():
    h = Histogram("p")
    assert h.percentile(50) is None
    assert h.percentiles() == {"p50": None, "p95": None, "p99": None}
    h.record(7)
    assert h.percentile(1) == 7.0
    assert h.percentile(99) == 7.0


def test_histogram_percentile_unsorted_input():
    h = Histogram("p")
    for sample in (9, 1, 5, 3, 7):
        h.record(sample)
    assert h.percentile(50) == 5.0
    assert h.percentile(20) == 1.0


def test_histogram_merge_is_lossless():
    a, b = Histogram("a"), Histogram("b")
    for sample in (1, 2, 3):
        a.record(sample)
    for sample in (10, 20):
        b.record(sample)
    a.merge(b)
    assert a.count == 5
    assert a.total == 36
    assert a.minimum == 1 and a.maximum == 20
    assert a.percentile(50) == 3.0
    # merge replays samples, so b is untouched
    assert b.count == 2


def test_registry_merge_folds_everything():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c").inc(2)
    b.counter("c").inc(3)
    b.gauge("g").set(9)
    b.histogram("h", buckets=(10,)).record(4)
    a.merge(b)
    assert a.counters["c"].value == 5
    assert a.gauges["g"].value == 9
    assert a.histograms["h"].count == 1


def test_to_dict_sorted_and_json_stable():
    reg = MetricsRegistry()
    reg.counter("b").inc()
    reg.counter("a").inc()
    payload = reg.to_dict()
    assert list(payload["counters"]) == ["a", "b"]
    # to_json round-trips and is byte-stable for identical content.
    assert reg.to_json() == reg.to_json()
    assert json.loads(reg.to_json())["counters"]["a"] == 1


def test_deterministic_export_excludes_volatile():
    reg = MetricsRegistry()
    reg.counter("sim.tasks").inc(10)
    reg.gauge("wall.seconds", volatile=True).set(1.23)
    reg.histogram("wall.hist", buckets=(1,), volatile=True).record(0.5)
    full = reg.to_dict()
    det = reg.to_dict(deterministic=True)
    assert "wall.seconds" in full["gauges"]
    assert det["gauges"] == {}
    assert det["histograms"] == {}
    assert det["counters"] == {"sim.tasks": 10}
    assert "wall" not in reg.to_prometheus(deterministic=True)


def test_prometheus_exposition_format():
    reg = MetricsRegistry()
    reg.counter("exec.jobs.executed", "real simulations").inc(2)
    reg.gauge("pool.depth").set(4)
    h = reg.histogram("run.seconds", buckets=(0.1, 1.0), help="per-job")
    h.record(0.05)
    h.record(5.0)
    text = reg.to_prometheus()
    assert "# HELP exec_jobs_executed real simulations" in text
    assert "# TYPE exec_jobs_executed counter" in text
    assert "exec_jobs_executed 2" in text
    assert "# TYPE pool_depth gauge" in text
    assert 'run_seconds_bucket{le="0.1"} 1' in text
    assert 'run_seconds_bucket{le="+Inf"} 2' in text
    assert "run_seconds_sum 5.05" in text
    assert "run_seconds_count 2" in text
    assert text.endswith("\n")


def test_write_selects_format_by_suffix(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c").inc()
    json_path = reg.write(tmp_path / "m.json")
    prom_path = reg.write(tmp_path / "m.prom")
    assert json.loads(json_path.read_text())["counters"]["c"] == 1
    assert "# TYPE c counter" in prom_path.read_text()


def test_record_metrics_feeder():
    from repro.exec import JobRunner, make_spec

    (record,) = JobRunner().run_checked([make_spec("fib", 2, quick=True)])
    reg = MetricsRegistry()
    record_metrics(reg, record)
    assert reg.histograms["sim.run.cycles"].count == 1
    assert reg.histograms["sim.run.cycles"].buckets == CYCLES_BUCKETS
    assert reg.counters["sim.tasks.executed"].value == record.tasks_executed
    assert reg.counters["sim.steals.hits"].value == record.total_steals
    # Everything record-derived is deterministic: it survives the
    # deterministic export.
    det = reg.to_dict(deterministic=True)
    assert det["counters"]["sim.tasks.executed"] == record.tasks_executed


def test_timeseries_metrics_feeder():
    from repro.harness.runners import run_flex
    from repro.obs.metrics import timeseries_metrics
    from repro.obs.sampler import sample

    result = run_flex("fib", 4, quick=True, telemetry=True)
    series = sample(result.telemetry, end_cycle=result.cycles, epochs=8)
    reg = MetricsRegistry()
    timeseries_metrics(reg, series)
    assert reg.gauges["sim.epoch.epochs"].value == 8
    assert reg.gauges["sim.epoch.end_cycle"].value == result.cycles
    # Each sampled series became a per-epoch histogram.
    util = reg.histograms["sim.epoch.pe_utilization"]
    assert util.count == 8
    assert util.maximum <= 1.0
