"""Tests for execution tracing and timeline rendering."""

import pytest

from repro.arch import FlexAccelerator, flex_config
from repro.core.task import HOST_CONTINUATION, Task
from repro.harness.trace import ExecutionTrace, TaskInterval, attach_trace
from repro.obs import attach_telemetry
from repro.workers.fib import FibWorker, fib_reference


def traced_run(n=12, pes=4):
    accel = FlexAccelerator(flex_config(pes, memory="perfect"), FibWorker())
    trace = attach_trace(accel)
    result = accel.run(Task("FIB", HOST_CONTINUATION, (n,)))
    return trace, result


def test_records_every_task():
    trace, result = traced_run()
    assert len(trace.intervals) == result.tasks_executed
    assert result.value == fib_reference(12)


def test_intervals_well_formed():
    trace, result = traced_run()
    for interval in trace.intervals:
        assert 0 <= interval.start <= interval.end <= result.cycles
        assert 0 <= interval.pe_id < 4
        assert interval.task_type in ("FIB", "SUM")


def test_no_overlap_per_pe():
    trace, _ = traced_run()
    for pe in range(trace.num_pes):
        mine = sorted((i for i in trace.intervals if i.pe_id == pe),
                      key=lambda i: i.start)
        for a, b in zip(mine, mine[1:]):
            assert a.end <= b.start


def test_busy_matches_pe_stats():
    trace, result = traced_run()
    for pe_stat in result.pe_stats:
        assert trace.busy_cycles(pe_stat.pe_id) == pe_stat.busy_cycles


def test_by_type_accounts_all_time():
    trace, _ = traced_run()
    by_type = trace.by_type()
    assert set(by_type) == {"FIB", "SUM"}
    assert sum(by_type.values()) == sum(i.duration for i in trace.intervals)


def test_render_shape():
    trace, _ = traced_run(pes=4)
    text = trace.render(width=40)
    lines = text.split("\n")
    assert len(lines) == 5  # header + 4 PEs
    assert lines[1].startswith("pe0")
    assert "#" in lines[1]


def test_render_empty():
    assert ExecutionTrace().render() == "(empty trace)"


def test_idle_pes_keep_timeline_rows():
    """A machine wider than its workload must still show every PE:
    fib(1) is a single task, so 7 of 8 PEs never run anything."""
    accel = FlexAccelerator(flex_config(8, memory="perfect"), FibWorker())
    trace = attach_trace(accel)
    accel.run(Task("FIB", HOST_CONTINUATION, (1,)))
    assert len(trace.intervals) == 1
    assert trace.num_pes == 8
    lines = trace.render(width=20).split("\n")
    assert len(lines) == 9  # header + all 8 PEs, idle ones included
    assert sum("#" in line for line in lines[1:]) == 1


def test_trace_reuses_attached_telemetry():
    accel = FlexAccelerator(flex_config(4, memory="perfect"), FibWorker())
    sink = attach_telemetry(accel)
    trace = attach_trace(accel)
    result = accel.run(Task("FIB", HOST_CONTINUATION, (12,)))
    assert accel.telemetry is sink
    assert len(trace.intervals) == result.tasks_executed == len(sink.tasks)


def test_unattached_trace_derives_pe_count():
    trace = ExecutionTrace([TaskInterval(3, 0, 5, "T")])
    assert trace.num_pes == 4


def test_declared_pe_count_never_undercounts():
    trace = ExecutionTrace([TaskInterval(5, 0, 5, "T")], num_pes=2)
    assert trace.num_pes == 6


def test_utilization_in_unit_interval():
    trace, result = traced_run()
    assert 0.0 < trace.utilization() <= 1.0
    assert trace.utilization() == pytest.approx(result.utilization(),
                                                abs=0.05)


def test_interval_duration():
    interval = TaskInterval(0, 10, 25, "T")
    assert interval.duration == 15
