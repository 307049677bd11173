"""Unit tests for latency/bandwidth channels, on the kernel and the
test suite's reference engine.

Channels are built through the engine factory (``engine.channel``) so
each engine's own channel class is under test.
"""

import pytest

from repro.kernel import FastEngine, Get, Timeout
from tests.kernel.reference import ReferenceEngine


@pytest.fixture(params=["reference", "fast"])
def eng(request):
    return {"reference": ReferenceEngine, "fast": FastEngine}[request.param]()


def test_put_get_with_latency(eng):
    ch = eng.channel(latency=10)
    got = []

    def consumer():
        item = yield Get(ch)
        got.append((eng.now, item))

    eng.process(consumer())
    ch.put("hello")
    eng.run()
    assert got == [(10, "hello")]


def test_fifo_order_preserved(eng):
    ch = eng.channel(latency=2)
    got = []

    def consumer():
        for _ in range(3):
            item = yield Get(ch)
            got.append(item)

    eng.process(consumer())
    for item in ("a", "b", "c"):
        ch.put(item)
    eng.run()
    assert got == ["a", "b", "c"]


def test_getter_waits_for_item(eng):
    ch = eng.channel()
    got = []

    def consumer():
        item = yield Get(ch)
        got.append((eng.now, item))

    def producer():
        yield Timeout(30)
        ch.put("late")

    eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert got == [(30, "late")]


def test_bandwidth_interval_serialises_deliveries(eng):
    ch = eng.channel(latency=0, interval=5)
    times = []

    def consumer():
        for _ in range(3):
            yield Get(ch)
            times.append(eng.now)

    eng.process(consumer())
    for i in range(3):
        ch.put(i)
    eng.run()
    assert times == [0, 5, 10]


def test_try_get_nonblocking(eng):
    ch = eng.channel()
    assert ch.try_get() is None
    ch.put("x")
    eng.run()
    assert ch.try_get() == "x"
    assert ch.try_get() is None


def test_counts(eng):
    ch = eng.channel()
    ch.put(1)
    ch.put(2)
    eng.run()
    assert ch.put_count == 2
    assert len(ch) == 2
