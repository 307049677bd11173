"""Span recording, self-time subtraction and method patching."""

import random

import pytest

from perfbench.metrics import layer_of, per_layer
from perfbench.spans import Tracer


class FakeClock:
    """Deterministic clock: each read advances time by ``tick``."""

    def __init__(self, tick: float = 1.0) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


class Worker:
    def execute(self, depth):
        if depth:
            # An inline spawn: the task runs nested inside its parent's
            # execute call, re-entering the same traced method.
            self.execute(depth - 1)


class Memory:
    def access(self):
        return None


def test_nested_spans_subtract_children():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    # Clock reads: outer 1..6, inner 2..3 and 4..5 -> outer covers 5,
    # its children 2, so outer's self time is 3.
    times = tracer.self_times()
    assert times["inner"] == (2.0, 2)
    assert times["outer"] == (3.0, 1)


def test_reentrant_execute_counts_each_level_once():
    tracer = Tracer(clock=FakeClock())
    tracer.patch(Worker, "execute", "workers.execute")
    with tracer.installed():
        with tracer.span("kernel_arch"):
            Worker().execute(2)
    times = tracer.self_times()
    seconds, calls = times["workers.execute"]
    assert calls == 3
    # Three nested spans open and close once each: 6 clock reads, the
    # outermost spanning 5 ticks; self times add up to exactly that.
    assert seconds == pytest.approx(5.0)
    assert times["kernel_arch"][0] + seconds == pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1])


def test_self_times_sum_to_top_level_spans():
    rng = random.Random(7)
    tracer = Tracer()

    def nest(depth):
        for _ in range(rng.randint(0, 3)):
            with tracer.span(rng.choice("abc")):
                if depth:
                    nest(depth - 1)

    nest(4)
    top = sum(end - start for _n, start, end, parent in tracer.spans
              if parent == -1)
    total = sum(s for s, _ in tracer.self_times().values())
    assert total == pytest.approx(top)
    assert all(s >= 0 for s, _ in tracer.self_times().values())


def test_self_times_from_a_later_phase_only():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("cold"):
        pass
    first = len(tracer.spans)
    with tracer.span("warm"):
        with tracer.span("get"):
            pass
    assert set(tracer.self_times(first)) == {"warm", "get"}


def test_patch_and_uninstall_restore_originals():
    original = Memory.__dict__["access"]
    tracer = Tracer()
    tracer.patch(Memory, "access", "mem.access")
    with tracer.installed():
        assert Memory.__dict__["access"] is not original
        Memory().access()
    assert Memory.__dict__["access"] is original
    Memory().access()
    assert tracer.self_times()["mem.access"][1] == 1


def test_classmethods_stay_classmethods():
    class Record:
        @classmethod
        def build(cls, value):
            return cls, value

    tracer = Tracer()
    tracer.patch(Record, "build", "exec.record")
    with tracer.installed():
        assert Record.build(3) == (Record, 3)
    assert tracer.self_times()["exec.record"][1] == 1


def test_every_span_name_maps_to_a_layer():
    for span in ("kernel_arch", "workers.execute", "mem.access",
                 "sched.pick_victim", "exec.pool", "harness"):
        assert layer_of(span)


def _pass(cold_s, warm_s, layers):
    job = dict(label="fib-flex16", digest="d", engine="flex", pes=16,
               cycles=100, tasks=10, busy=800, steal_attempts=4,
               steal_hits=2, steal_remote=1, arg_local=3, arg_remote=1,
               pstore_high_water=5, park_elided=0, pe_parks=0,
               admission_high_water=0, l1_hits=9, l1_misses=1,
               l2_misses=0, c2c=0, dram_bytes=0, latencies=[100],
               inject_waits=[20], admit_waits=[0], run_s=0.5,
               queue_s=0.0)
    return dict(cold_s=cold_s, warm_s=warm_s, jobs=[job],
                failed_jobs=[], warm_served=4, warm_simulated=0,
                warm_mismatched=0, pool_jobs=1, pickle_bytes=0,
                layers=layers, warm_layers={})


def test_unattributed_time_is_never_negative():
    tracer = Tracer()
    start = tracer.clock()
    with tracer.span("exec.run"):
        with tracer.span("kernel_arch"):
            with tracer.span("workers.execute"):
                pass
            with tracer.span("mem.access"):
                pass
    wall = tracer.clock() - start
    traced = _pass(wall, 0.0, tracer.self_times())
    values = per_layer(_pass(wall, 0.0, {}), traced)
    assert values["trace.unattributed_s"] >= 0
    assert sum(values[m] for m in (
        "exec.overhead_s", "kernel_arch.self_s", "workers.execute_s",
        "mem.access_s", "trace.unattributed_s")) == pytest.approx(wall)
