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
from repro.core.lfsr import LFSR16
from repro.kernel import (
    BACKENDS,
    FastEngine,
    Park,
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

def test_make_engine_builds_the_fast_engine():
    assert type(make_engine()) is FastEngine


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
    """A seeded tangle of processes exercising every kernel operation.

    Draws every choice from one ``LFSR16(seed)`` stream, so both engines
    see the same choices as long as they run events in the same order.
    Mixes scheduled callbacks (with and without arguments), plain
    timeouts (run-ahead candidates), ``Timeout(0)`` yields, events,
    joins, parks, and ``resume_at`` with past, present and future
    virtual ancestry, at this tick and at later ones.  That reaches every
    insert path the fast engine's tick buckets keep sorted (a new tick,
    an append, an insort after the drain cursor and a plain insort, in
    ``_insert`` and in the copies ``schedule`` and the run loop inline),
    both run-ahead vetoes and the run-ahead step itself.
    """
    lfsr = LFSR16(seed)

    def draw(n):
        return lfsr.next() % n

    gates = [eng.event(f"gate{k}") for k in range(3)]
    parked = []  # parked processes, in park order

    def wake(tag, ahead, ancestry):
        """Resume one parked process ``ahead`` ticks from now, with its
        virtual ancestry ``ancestry`` ticks from now (negative: in the
        past); return the resume tick, or None when nobody is parked."""
        if not parked:
            return None
        proc = parked.pop(draw(len(parked)))
        now = eng.now
        time = now + ahead
        s_at = max(0, now + ancestry)
        p_s_at = max(0, s_at - draw(3))
        trace.append(("wake", tag, proc.name, now, time, s_at, p_s_at))
        eng.resume_at(proc, time, tag, s_at, p_s_at)
        return time

    def callback(tag, depth):
        trace.append(("call", tag, depth, eng.now))
        action = draw(4)
        if action == 0 and depth < 3:
            eng.schedule(draw(4), callback, tag, depth + 1)
        elif action == 1:
            # Past ancestry, at this tick or a later one: the record
            # sorts ahead of records already there.
            wake(tag, draw(2) * (1 + draw(6)), -1)
        elif action == 2:
            gate = gates[draw(len(gates))]
            if not gate.triggered:
                gate.trigger((tag, eng.now))

    def sleeper(tag, box, naps):
        for _ in range(naps):
            parked.append(box[0])
            value = yield Park()
            trace.append(("woke", tag, eng.now, value))
            yield Timeout(draw(3))
        trace.append(("sleeper-done", tag, eng.now))
        return tag

    def worker(tag, rounds, peers):
        for i in range(rounds):
            action = draw(6)
            if action == 0:
                yield Timeout(1 + draw(7))
            elif action == 1:
                eng.schedule(draw(4), callback, (tag, i), 0)
                yield Timeout(draw(3))
            elif action == 2:
                # Present ancestry at this tick: the woken record lands
                # after the cursor, and this Timeout(0) sorts ahead of it.
                wake(tag, 0, 0)
                yield Timeout(0)
            elif action == 3:
                # Future ancestry at a later tick; a callback and this
                # process's own timeout land there ahead of it, while a
                # callback pending at this tick keeps it from running
                # ahead.
                ahead = 1 + draw(6)
                if wake(tag, ahead, 1 + draw(ahead)) is not None:
                    eng.schedule(ahead, lambda i=i: callback((tag, i), 1))
                eng.schedule(0, lambda i=i: callback((tag, i), 0))
                yield Timeout(ahead)
            elif action == 4:
                payload = yield gates[draw(len(gates))]
                trace.append(("gated", tag, i, eng.now, payload))
            else:
                peer = peers[draw(len(peers))]
                value = yield peer
                trace.append(("joined", tag, i, peer.name, value, eng.now))
            trace.append(("step", tag, i, eng.now))
        trace.append(("worker-done", tag, eng.now))
        return tag

    def chain(tag, links):
        # Serial chain: the run-ahead fast path.
        for _ in range(links):
            yield Timeout(3)
        trace.append(("chain-done", tag, eng.now))
        for gate in gates:
            if not gate.triggered:
                gate.trigger(tag)
        return tag

    def reaper(tag, first):
        # Once the chain is done, wake sleepers until every one has
        # finished, so every process ends and every join resolves.
        yield first
        while not all(proc.done for proc in sleepers):
            wake(tag, draw(3), -draw(2))
            yield Timeout(1 + draw(3))
        trace.append(("reaper-done", tag, eng.now))

    sleepers = []
    for k in range(4):
        box = []
        box.append(eng.process(sleeper(f"s{k}", box, 8), name=f"s{k}"))
        sleepers.append(box[0])
    peers = [eng.process(chain("chain", 40), name="chain")] + sleepers
    eng.process(reaper("r", peers[0]), name="reaper")
    for k in range(4):
        peers.append(eng.process(worker(f"w{k}", 30, list(peers)),
                                 name=f"w{k}"))


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


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_schedule_passes_callback_arguments(name):
    """``schedule(d, fn, a, b)`` calls ``fn(a, b)`` at ``now + d``;
    ``schedule(d, fn)`` calls ``fn()``."""
    eng = ENGINES[name]()
    calls = []

    def record(*args):
        calls.append((eng.now, args))

    def start():
        eng.schedule(3, record, "a", 2)
        eng.schedule(5, record)

    eng.schedule(4, start)
    eng.run()
    assert calls == [(7, ("a", 2)), (9, ())]


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
