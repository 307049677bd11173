"""Unit tests for statistics helpers."""

from repro.kernel import make_engine
from repro.sim.stats import Counter, Histogram, StatsRegistry, UtilizationTracker


def test_counter():
    c = Counter("x")
    c.inc()
    c.inc(5)
    assert c.value == 6


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


def test_registry_reuses_instances():
    reg = StatsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.histogram("h") is reg.histogram("h")
    reg.counter("a").inc(3)
    reg.histogram("h").record(10)
    flat = reg.as_dict()
    assert flat["a"] == 3
    assert flat["h.count"] == 1
    assert flat["h.mean"] == 10
    assert any("a = 3" in line for line in reg.report())


def test_as_dict_includes_extremes():
    reg = StatsRegistry()
    for sample in (4, 9, 6):
        reg.histogram("lat").record(sample)
    flat = reg.as_dict()
    assert flat["lat.min"] == 4
    assert flat["lat.max"] == 9
    snap = reg.snapshot("pe.")
    assert snap["pe.lat.min"] == 4
    assert snap["pe.lat.max"] == 9


def test_as_dict_empty_histogram_has_no_extremes():
    reg = StatsRegistry()
    reg.histogram("lat")  # registered, never recorded
    flat = reg.as_dict()
    assert flat["lat.count"] == 0
    assert "lat.min" not in flat and "lat.max" not in flat


def test_utilization_tracker():
    eng = make_engine()
    tracker = UtilizationTracker(eng, "pe")
    eng.schedule(0, tracker.set_busy)
    eng.schedule(30, tracker.set_idle)
    eng.schedule(100, lambda: None)
    eng.run()
    assert tracker.busy_time() == 30
    assert tracker.utilization() == 0.3


def test_utilization_read_mid_busy_interval():
    """busy_time/utilization sampled while a busy interval is still
    open must include the elapsed part of that interval."""
    eng = make_engine()
    tracker = UtilizationTracker(eng, "pe")
    seen = {}

    def probe():
        seen["busy"] = tracker.busy_time()
        seen["util"] = tracker.utilization()

    eng.schedule(10, tracker.set_busy)
    eng.schedule(40, probe)           # mid-interval: busy since t=10
    eng.schedule(100, tracker.set_idle)
    eng.run()
    assert seen["busy"] == 30
    assert seen["util"] == 30 / 40
    # The probe must not have closed the interval.
    assert tracker.busy_time() == 90


def test_utilization_still_busy_at_end():
    eng = make_engine()
    tracker = UtilizationTracker(eng, "pe")
    eng.schedule(10, tracker.set_busy)
    eng.schedule(50, lambda: None)
    eng.run()
    assert tracker.busy_time() == 40


def test_utilization_zero_time():
    eng = make_engine()
    tracker = UtilizationTracker(eng, "pe")
    assert tracker.utilization() == 0.0


def test_double_busy_is_idempotent():
    eng = make_engine()
    tracker = UtilizationTracker(eng, "pe")
    tracker.set_busy()
    tracker.set_busy()
    eng.schedule(25, lambda: None)
    eng.run()
    tracker.set_idle()
    tracker.set_idle()
    assert tracker.busy_time() == 25
