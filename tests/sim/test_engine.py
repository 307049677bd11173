"""Unit tests for the discrete-event kernel and its reference engine.

Every test is parametrized over the simulator's ``fast`` engine and the
test suite's ``reference`` engine via the ``Engine`` fixture — the
kernel interface contract (docs/KERNEL.md) says both must pass the same
suite.
"""

import pytest

from repro.kernel import (
    FastEngine,
    Park,
    SimulationError,
    Timeout,
)
from tests.kernel.reference import ReferenceEngine


@pytest.fixture(params=["reference", "fast"])
def Engine(request):
    return {"reference": ReferenceEngine, "fast": FastEngine}[request.param]


def test_schedule_runs_in_time_order(Engine):
    eng = Engine()
    order = []
    eng.schedule(5, lambda: order.append("b"))
    eng.schedule(1, lambda: order.append("a"))
    eng.schedule(9, lambda: order.append("c"))
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 9


def test_same_time_events_fifo(Engine):
    eng = Engine()
    order = []
    for tag in ("first", "second", "third"):
        eng.schedule(3, lambda t=tag: order.append(t))
    eng.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected(Engine):
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule(-1, lambda: None)


def test_fractional_delay_rejected(Engine):
    """Non-integral delays are modelling bugs: fail loudly, never truncate."""
    eng = Engine()
    with pytest.raises(ValueError, match="non-integral"):
        eng.schedule(2.5, lambda: None)
    with pytest.raises(ValueError, match="non-integral"):
        Timeout(1.5)
    with pytest.raises(ValueError):
        Timeout(-1)
    # Integral floats are fine (a whole number of ticks, however typed).
    assert Timeout(2.0).delay == 2
    eng.schedule(3.0, lambda: None)
    eng.run()
    assert eng.now == 3


def test_timeout_process(Engine):
    eng = Engine()
    trace = []

    def proc():
        trace.append(eng.now)
        yield Timeout(10)
        trace.append(eng.now)
        yield Timeout(5)
        trace.append(eng.now)

    eng.process(proc())
    eng.run()
    assert trace == [0, 10, 15]


def test_process_return_value_and_join(Engine):
    eng = Engine()
    results = []

    def child():
        yield Timeout(7)
        return 42

    def parent():
        value = yield eng.process(child(), name="child")
        results.append((eng.now, value))

    eng.process(parent(), name="parent")
    eng.run()
    assert results == [(7, 42)]


def test_join_already_finished_process(Engine):
    eng = Engine()
    results = []

    def child():
        return 1
        yield  # pragma: no cover

    def parent(proc):
        yield Timeout(50)
        value = yield proc
        results.append(value)

    child_proc = eng.process(child())
    eng.process(parent(child_proc))
    eng.run()
    assert results == [1]


def test_event_trigger_resumes_waiters(Engine):
    eng = Engine()
    seen = []
    evt = eng.event("go")

    def waiter(tag):
        payload = yield evt
        seen.append((tag, eng.now, payload))

    eng.process(waiter("w1"))
    eng.process(waiter("w2"))
    eng.schedule(20, lambda: evt.trigger("payload"))
    eng.run()
    assert seen == [("w1", 20, "payload"), ("w2", 20, "payload")]


def test_event_double_trigger_raises(Engine):
    eng = Engine()
    evt = eng.event()
    evt.trigger()
    with pytest.raises(SimulationError):
        evt.trigger()


def test_wait_on_triggered_event_resumes_immediately(Engine):
    eng = Engine()
    evt = eng.event()
    evt.trigger("x")
    got = []

    def waiter():
        value = yield evt
        got.append((eng.now, value))

    eng.process(waiter())
    eng.run()
    assert got == [(0, "x")]


def test_run_until_stops_early(Engine):
    eng = Engine()
    fired = []
    eng.schedule(100, lambda: fired.append(True))
    end = eng.run(until=50)
    assert end == 50
    assert not fired


def test_run_until_advances_clock_on_drained_heap(Engine):
    """A bounded run ends at its horizon even when the heap drains first
    (regression: ``now`` used to stick at the last event's time,
    inconsistent with the stopped-early path)."""
    eng = Engine()
    fired = []
    eng.schedule(10, lambda: fired.append(eng.now))
    end = eng.run(until=50)
    assert fired == [10]
    assert end == 50
    assert eng.now == 50
    assert eng.last_event_time == 10
    # Idempotent: running again past the horizon just advances the clock.
    assert eng.run(until=80) == 80
    assert eng.last_event_time == 10


def test_run_until_advances_clock_with_no_events_at_all(Engine):
    eng = Engine()
    assert eng.run(until=40) == 40
    assert eng.now == 40
    assert eng.last_event_time == 0


def test_run_until_leaves_pending_events_and_resumes(Engine):
    eng = Engine()
    fired = []
    eng.schedule(100, lambda: fired.append(eng.now))
    eng.run(until=50)
    # The event survived the bounded run and a second run() completes it.
    assert eng.pending_events == 1
    assert not eng.finished
    end = eng.run()
    assert end == 100
    assert fired == [100]
    assert eng.pending_events == 0
    assert eng.finished


def test_pending_events_inside_an_event_excludes_executed_ones(Engine):
    """Read from inside a callback, the count leaves out the executing
    event and those already run at the same tick."""
    eng = Engine()
    seen = []

    def look():
        seen.append((eng.now, eng.pending_events, eng.finished))

    for _ in range(3):
        eng.schedule(5, look)
    eng.schedule(9, look)
    eng.run()
    assert seen == [(5, 3, False), (5, 2, False), (5, 1, False),
                    (9, 0, True)]


def test_park_suspends_without_engine_events(Engine):
    eng = Engine()
    trace = []

    def sleeper():
        trace.append(("parked", eng.now))
        value = yield Park()
        trace.append(("woken", eng.now, value))

    proc = eng.process(sleeper(), name="sleeper")
    eng.run()
    # The process parked: the heap drained with it still live.
    assert trace == [("parked", 0)]
    assert eng.finished
    assert eng.live_processes == 1
    eng.resume_at(proc, 25, "hello", 25, 25)
    eng.run()
    assert trace == [("parked", 0), ("woken", 25, "hello")]
    assert eng.live_processes == 0


def test_resume_at_rejects_the_past_and_bad_ancestry(Engine):
    eng = Engine()

    def sleeper():
        yield Park()

    proc = eng.process(sleeper())
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.resume_at(proc, 5, None, 5, 5)  # before now
    with pytest.raises(SimulationError):
        eng.resume_at(proc, 20, None, 30, 5)  # scheduled after it runs


def test_resume_at_virtual_ancestry_orders_same_tick_events(Engine):
    """A resumed event with earlier virtual ancestry runs before a
    same-tick event scheduled later in wall-clock order — exactly where
    the never-parked execution would have placed it."""
    eng = Engine()
    order = []

    def sleeper():
        yield Park()
        order.append("resumed")

    proc = eng.process(sleeper())
    eng.run()

    def producer():
        yield Timeout(40)
        # Scheduled at tick 40 for tick 50 — but the parked process
        # "would have" scheduled its poll at tick 30, so it wins the tie.
        eng.schedule(10, lambda: order.append("producer"))
        eng.resume_at(proc, 50, None, 30, 20)

    eng.process(producer())
    eng.run()
    assert order == ["resumed", "producer"]


def test_unsupported_yield_raises(Engine):
    eng = Engine()

    def bad():
        yield "not a request"

    eng.process(bad())
    with pytest.raises(SimulationError):
        eng.run()


def test_live_process_count(Engine):
    eng = Engine()

    def proc():
        yield Timeout(3)

    eng.process(proc())
    eng.process(proc())
    assert eng.live_processes == 2
    eng.run()
    assert eng.live_processes == 0
