"""The product kernel against the reference engine, and its hooks.

The simulator runs one kernel, :class:`~repro.kernel.FastEngine`.  The
golden suites and the trace pins (``test_trace_pins.py``) hold it to
recorded constants; this module holds it to the test suite's reference
engine (``tests/kernel/reference.py``), the obvious heap-and-closure
event loop, on every observable: on the heaviest feature combinations
(telemetry + parking + zero-rate fault plans) with the reference engine
substituted for :func:`~repro.kernel.make_engine`, and on a seeded
randomized kernel workload that hammers the ordering paths the fast
engine optimises (tick buckets, run-ahead, same-tick inserts).
"""

import pytest

from repro.core.exceptions import ConfigError
from repro.exec import make_spec
from repro.harness.runners import run_flex
from repro.kernel import (
    BACKENDS,
    FastChannel,
    FastEngine,
    Get,
    Park,
    SimulationError,
    Timeout,
    make_engine,
    resolve_backend,
)
from repro.resil.faults import FaultSpec
from tests.kernel.reference import ReferenceEngine, use_kernel

#: The two engines every parity test runs, by name.
ENGINES = {"reference": ReferenceEngine, "fast": make_engine}


# ----------------------------------------------------------------------
# The one kernel and its hooks
# ----------------------------------------------------------------------

def test_make_engine_wires_backend_and_channel_type():
    eng = make_engine()
    assert type(eng) is FastEngine
    assert type(eng.channel()) is FastChannel


def test_perfbench_kernel_hook():
    # perfbench/measure.py hangs its kernel_arch span on this class's
    # own run() and prints resolve_backend(None) with every result.
    engine_class = BACKENDS[resolve_backend(None)]
    assert engine_class is type(make_engine())
    assert "run" in engine_class.__dict__


def test_spec_rejects_backend_override():
    with pytest.raises(ConfigError, match="unknown AcceleratorConfig "
                                          "override 'backend'"):
        make_spec("fib", 4, quick=True, backend="fast")


# ----------------------------------------------------------------------
# Full-system equivalence (telemetry + parking + null fault plan)
# ----------------------------------------------------------------------

def full_signature(result):
    """Every observable of a run, including the whole telemetry trace."""
    sig = {
        "cycles": result.cycles,
        "value": result.value,
        "pe_stats": [repr(s) for s in result.pe_stats],
        "counters": dict(result.counters),
    }
    if result.telemetry is not None:
        sig["trace"] = [
            (e.ts, e.kind, e.pe, e.uid, e.data)
            for e in result.telemetry.sorted_events()
        ]
        sig["tasks"] = [repr(t) for t in result.telemetry.tasks]
    return sig


@pytest.mark.parametrize("name,pes,kwargs", [
    ("fib", 4, dict(telemetry=True, park_idle_pes=True)),
    ("uts", 8, dict(telemetry=True, park_idle_pes=True)),
    ("quicksort", 4, dict(telemetry=True, park_idle_pes=False,
                          faults=FaultSpec())),
])
def test_backends_identical_on_full_observables(name, pes, kwargs,
                                                monkeypatch):
    fast = run_flex(name, pes, quick=True, **kwargs)
    use_kernel(monkeypatch, "reference")
    ref = run_flex(name, pes, quick=True, **kwargs)
    assert full_signature(fast) == full_signature(ref)


# ----------------------------------------------------------------------
# Randomized kernel-level parity
# ----------------------------------------------------------------------

def _random_workload(eng, trace, seed):
    """A seeded tangle of processes exercising every kernel primitive.

    Uses the kernel's own LFSR so both engines draw the same stream.
    Mixes plain timeouts (run-ahead candidates), channel traffic,
    events, joins, parks and same-tick resume_at with past virtual
    ancestry — the insert paths the fast engine's buckets must keep
    sorted.
    """
    lfsr = eng.lfsr(seed)
    ch = eng.channel(latency=2, interval=3)
    evt = eng.event("gate")
    parked = []

    def sleeper(tag):
        value = yield Park()
        trace.append(("woke", tag, eng.now, value))

    def producer(tag, rounds):
        for i in range(rounds):
            yield Timeout(1 + lfsr.next() % 7)
            ch.put((tag, i))
            trace.append(("put", tag, i, eng.now))
            if lfsr.next() % 4 == 0 and parked:
                proc = parked.pop()
                # Wake with *past* virtual ancestry at the current
                # tick: lands mid-bucket, ahead of later same-tick
                # records — the insort path.
                eng.resume_at(proc, eng.now, tag,
                              max(0, eng.now - 1), max(0, eng.now - 2))
        trace.append(("producer-done", tag, eng.now))

    def consumer(tag, count):
        for _ in range(count):
            item = yield Get(ch)
            trace.append(("got", tag, item, eng.now))
            yield Timeout(lfsr.next() % 5)
        trace.append(("consumer-done", tag, eng.now))

    def chain(tag, links):
        # Serial chain: the run-ahead fast path.
        for _ in range(links):
            yield Timeout(3)
        trace.append(("chain-done", tag, eng.now))
        evt.trigger(tag)

    def joiner(proc, tag):
        value = yield proc
        trace.append(("joined", tag, value, eng.now))
        gate = yield evt
        trace.append(("gated", tag, gate, eng.now))

    for k in range(3):
        parked.append(eng.process(sleeper(k), name=f"sleeper{k}"))
    p = eng.process(producer("p0", 12), name="p0")
    eng.process(producer("p1", 9), name="p1")
    eng.process(consumer("c0", 14), name="c0")
    eng.process(consumer("c1", 7), name="c1")
    eng.process(chain("chain", 40), name="chain")
    eng.process(joiner(p, "j0"), name="j0")


@pytest.mark.parametrize("seed", [0xACE1, 0xBEEF, 0x1234])
def test_randomized_workload_bit_exact_across_backends(seed):
    traces = {}
    for name, build in ENGINES.items():
        eng = build()
        trace = []
        _random_workload(eng, trace, seed)
        end = eng.run()
        traces[name] = (end, trace, eng.live_processes,
                        eng.pending_events)
    assert traces["fast"] == traces["reference"]


@pytest.mark.parametrize("seed", [0xACE1, 0xBEEF])
def test_randomized_workload_bit_exact_under_bounded_runs(seed):
    """Driving the same workload in until-chunks (the watchdog pattern)
    must not perturb anything either — run-ahead has to stop at each
    horizon and resume cleanly."""
    full = {}
    for name, build in ENGINES.items():
        eng = build()
        trace = []
        _random_workload(eng, trace, seed)
        eng.run()
        full[name] = trace
    chunked = {}
    for name, build in ENGINES.items():
        eng = build()
        trace = []
        _random_workload(eng, trace, seed)
        horizon = 0
        while not eng.finished:
            horizon += 17
            eng.run(until=horizon)
        chunked[name] = trace
    assert full["fast"] == full["reference"]
    assert chunked["reference"] == full["reference"]
    assert chunked["fast"] == full["reference"]


def test_serial_chain_runs_ahead_to_the_same_end():
    """A lone chain of timeouts, which the fast engine runs as a bare
    ``send`` loop: same end tick, finish tick and drained state."""
    links = 10_000
    outcomes = {}
    for name, build in ENGINES.items():
        eng = build()
        finished = []

        def chain():
            for _ in range(links):
                yield Timeout(7)
            finished.append(eng.now)

        eng.process(chain(), name="chain")
        end = eng.run()
        outcomes[name] = (end, finished, eng.live_processes,
                          eng.pending_events, eng.finished)
    assert outcomes["fast"] == outcomes["reference"]
    assert outcomes["fast"] == (links * 7, [links * 7], 0, 0, True)


def test_max_events_parity_across_backends():
    """Both engines must count events identically: the guard trips at
    the same threshold whether or not run-ahead elided heap traffic."""

    def build(eng, log):
        def spinner():
            while True:
                yield Timeout(1)
                log.append(eng.now)

        eng.process(spinner(), name="spin")

    thresholds = {}
    for name, make in ENGINES.items():
        for limit in (1, 2, 7, 50):
            eng = make()
            log = []
            build(eng, log)
            with pytest.raises(SimulationError):
                eng.run(max_events=limit)
            thresholds[(name, limit)] = (len(log), eng.now)
    for limit in (1, 2, 7, 50):
        assert thresholds[("fast", limit)] == thresholds[("reference", limit)]


def test_mid_bucket_failure_leaves_suffix_pending():
    """A callback raising mid-tick must not lose the same-tick suffix:
    both engines keep unexecuted events inspectable and resumable."""

    class Boom(Exception):
        pass

    for name, build in ENGINES.items():
        eng = build()
        ran = []
        eng.schedule(5, lambda: ran.append("a"))
        eng.schedule(5, lambda: (_ for _ in ()).throw(Boom()))
        eng.schedule(5, lambda: ran.append("c"))
        with pytest.raises(Boom):
            eng.run()
        assert ran == ["a"], name
        assert eng.pending_events == 1, name
        eng.run()
        assert ran == ["a", "c"], name
