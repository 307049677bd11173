"""Workload-source unit tests: determinism, round-trips, validation."""

from types import SimpleNamespace

import pytest

from repro.arch.interface import AdmissionControl, InterfaceBlock
from repro.core.exceptions import ConfigError
from repro.core.task import HOST_CONTINUATION, Task
from repro.workload import (
    ClosedSource,
    Job,
    JobRecord,
    StochasticSource,
    Tenant,
    TraceSource,
    bind_jobs,
    dump_trace,
    load_trace,
    make_source,
    trace_tenants,
)

GOLD_SILVER = (Tenant("gold", weight=3), Tenant("silver", weight=1))


# ---------------------------------------------------------------------------
# stochastic arrivals
def test_stochastic_same_seed_is_identical():
    a = StochasticSource(rate=4.0, num_jobs=32, seed=0xBEEF)
    b = StochasticSource(rate=4.0, num_jobs=32, seed=0xBEEF)
    assert a.arrivals() == b.arrivals()


def test_stochastic_different_seed_differs():
    a = StochasticSource(rate=4.0, num_jobs=32, seed=0xBEEF)
    b = StochasticSource(rate=4.0, num_jobs=32, seed=0xACE1)
    assert a.arrivals() != b.arrivals()


def test_stochastic_times_strictly_increase():
    arrivals = StochasticSource(rate=50.0, num_jobs=64,
                                seed=0xBEEF).arrivals()
    assert [a.job_id for a in arrivals] == list(range(64))
    times = [a.time for a in arrivals]
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
    assert times[0] >= 1


def test_stochastic_rate_scales_mean_gap():
    slow = StochasticSource(rate=1.0, num_jobs=64, seed=0xBEEF).arrivals()
    fast = StochasticSource(rate=8.0, num_jobs=64, seed=0xBEEF).arrivals()
    assert fast[-1].time < slow[-1].time


def test_stochastic_weighted_tenant_mix():
    arrivals = StochasticSource(rate=4.0, num_jobs=200, seed=0xBEEF,
                                tenants=GOLD_SILVER).arrivals()
    gold = sum(1 for a in arrivals if a.tenant == "gold")
    silver = len(arrivals) - gold
    # Weight 3:1 — the draw is LFSR-uniform, so gold dominates.
    assert gold > 2 * silver


def test_closed_source_round_robin_tenants():
    arrivals = ClosedSource(num_jobs=4, tenants=GOLD_SILVER).arrivals()
    assert all(a.time == 0 for a in arrivals)
    assert [a.tenant for a in arrivals] == ["gold", "silver"] * 2


# ---------------------------------------------------------------------------
# describe() / make_source round-trips
@pytest.mark.parametrize("source", [
    ClosedSource(num_jobs=3),
    ClosedSource(num_jobs=2, tenants=GOLD_SILVER, admit_window=2),
    StochasticSource(rate=2.5, num_jobs=16, seed=0xBEEF),
    StochasticSource(rate=2.5, num_jobs=16, seed=0xBEEF,
                     tenants=GOLD_SILVER, admit_window=1),
    TraceSource(arrivals=((0, "default"), (10, "default"))),
    TraceSource(arrivals=((5, "gold"), (5, "silver"), (9, "gold")),
                tenants=GOLD_SILVER),
], ids=lambda s: f"{s.kind}-{len(s.tenants)}t")
def test_describe_round_trips(source):
    rebuilt = make_source(source.describe())
    assert rebuilt.describe() == source.describe()
    assert rebuilt.arrivals() == source.arrivals()


def test_tenant_params_survive_round_trip():
    source = ClosedSource(
        num_jobs=2,
        tenants=(Tenant("big", params=(("n", 18),)), Tenant("small")),
    )
    rebuilt = make_source(source.describe())
    assert rebuilt.tenant("big").params_dict == {"n": 18}


# ---------------------------------------------------------------------------
# trace files
def test_trace_dump_load_round_trip(tmp_path):
    source = StochasticSource(rate=4.0, num_jobs=12, seed=0xBEEF,
                              tenants=GOLD_SILVER)
    path = dump_trace(tmp_path / "arr.jsonl", source.arrivals())
    pairs = load_trace(path)
    replay = TraceSource(arrivals=pairs, tenants=GOLD_SILVER)
    assert replay.arrivals() == source.arrivals()


def test_load_trace_defaults_tenant(tmp_path):
    path = tmp_path / "arr.jsonl"
    path.write_text('{"time": 3}\n\n{"time": 7, "tenant": "gold"}\n')
    assert load_trace(path) == ((3, "default"), (7, "gold"))
    assert [t.name for t in trace_tenants(load_trace(path))] == [
        "default", "gold"]


def test_load_trace_names_bad_line(tmp_path):
    path = tmp_path / "arr.jsonl"
    path.write_text('{"time": 3}\nnot json\n')
    with pytest.raises(ConfigError, match=r"arr\.jsonl:2"):
        load_trace(path)


# ---------------------------------------------------------------------------
# validation
@pytest.mark.parametrize("build", [
    lambda: StochasticSource(rate=0.0, num_jobs=1),
    lambda: StochasticSource(rate=4.0, num_jobs=0),
    lambda: StochasticSource(rate=4.0, num_jobs=1, seed=0x10000),
    lambda: ClosedSource(num_jobs=0),
    lambda: ClosedSource(num_jobs=1, admit_window=0),
    lambda: ClosedSource(num_jobs=1, tenants=(Tenant("a"), Tenant("a"))),
    lambda: Tenant("gold", weight=0),
    lambda: TraceSource(arrivals=()),
    lambda: TraceSource(arrivals=((5, "x"), (3, "x"))),
    lambda: TraceSource(arrivals=((-1, "x"),)),
    lambda: TraceSource(arrivals=((0, "ghost"),), tenants=GOLD_SILVER),
    lambda: make_source({"kind": "nope"}),
    lambda: make_source({"kind": "stochastic"}),
    lambda: make_source({"kind": "trace"}),
    lambda: make_source("stochastic"),
], ids=[
    "zero-rate", "zero-jobs", "zero-seed", "closed-zero-jobs",
    "zero-window", "dup-tenants", "zero-weight", "empty-trace",
    "unsorted-trace", "negative-time", "undeclared-tenant",
    "unknown-kind", "missing-rate", "missing-arrivals", "non-dict-spec",
])
def test_invalid_specs_raise(build):
    with pytest.raises(ConfigError):
        build()


def test_bind_jobs_reslots_host_continuation():
    from repro.workers import make_benchmark

    bench = make_benchmark("fib", n=8)
    jobs = bind_jobs(ClosedSource(num_jobs=3),
                     lambda arrival: bench.root_task())
    assert [j.task.k.slot for j in jobs] == [0, 1, 2]
    assert all(j.task.k.is_host for j in jobs)


# ---------------------------------------------------------------------------
# admission order: AdmissionControl.pump
def _admission_order(*heads):
    """Queue one job per ``(tenant, weight, arrival, job_id)`` while the
    one-slot window is full, then free the slot and pump after each
    release; returns the job ids in release order."""
    interface = InterfaceBlock()
    control = AdmissionControl(
        SimpleNamespace(now=0), interface,
        [Tenant(name, weight=weight) for name, weight, _, _ in heads],
        window=1,
    )
    interface.inject(Task("BLOCKER", HOST_CONTINUATION))
    for name, _, arrival, job_id in heads:
        job = Job(job_id=job_id, time=arrival, tenant=name,
                  task=Task("JOB", HOST_CONTINUATION, (job_id,)))
        control.enqueue(job, JobRecord(job_id, name, arrival))
    assert len(interface.deque) == 1  # the window held every job back
    interface.deque.steal_head()
    order = []
    control.pump()
    while len(interface.deque):
        order.append(interface.deque.steal_head().args[0])
        control.pump()
    return order


def test_admit_prefers_earliest_arrival():
    assert _admission_order(("gold", 3, 90, 4),
                            ("silver", 1, 10, 7)) == [7, 4]


def test_admit_breaks_arrival_tie_by_weight():
    assert _admission_order(("silver", 1, 10, 2),
                            ("gold", 3, 10, 5)) == [5, 2]


def test_admit_breaks_full_tie_by_job_id():
    assert _admission_order(("a", 1, 10, 5), ("b", 1, 10, 2)) == [2, 5]
