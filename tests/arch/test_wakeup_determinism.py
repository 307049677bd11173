"""Bit-exactness regression for the parked-PE wakeup scheduler.

The wakeup scheduler (``repro/arch/wakeup.py``) is a pure simulator
optimisation: parking idle PEs and replaying their elided poll/steal
cadence on wakeup must leave every observable of the run — simulated
cycles, per-PE steal statistics, LFSR-driven victim choices, queue
high-water marks, network message counts — identical to the polling
execution.  These tests run each workload twice, with parking disabled
and enabled, and require the signatures to match exactly.
"""

import pytest

from repro.arch.accelerator import BaseAccelerator
from repro.harness.runners import run_cpu, run_flex, run_lite
from repro.sched import POLICY_NAMES
from tests.kernel.reference import KERNELS, use_kernel

#: Steal-network ``(local_messages, remote_messages)`` of each run, by
#: ``id`` of its RunResult (filled by the ``steal_messages`` fixture).
_STEAL_MESSAGES = {}


@pytest.fixture(autouse=True)
def steal_messages(monkeypatch):
    """Read every run's steal-network message split off the accelerator.

    RunResult carries only ``steal_requests``; a replay that charged a
    local message as remote would leave it unchanged.  The split lives
    on ``accel.net.steal_stats``, so this wraps ``_finish`` to copy it
    out rather than adding it to RunResult (which would move every
    record digest).
    """
    finish = BaseAccelerator._finish

    def recording_finish(self, max_cycles, label):
        result = finish(self, max_cycles, label)
        stats = self.net.steal_stats
        _STEAL_MESSAGES[id(result)] = (stats.local_messages,
                                       stats.remote_messages)
        return result

    monkeypatch.setattr(BaseAccelerator, "_finish", recording_finish)
    yield
    _STEAL_MESSAGES.clear()


def signature(result):
    """Every steal/timing observable the scheduler could perturb."""
    return {
        "cycles": result.cycles,
        "pe_stats": [
            (s.tasks_executed, s.busy_cycles, s.steal_attempts,
             s.steal_hits, s.steal_hits_remote, s.tasks_stolen_from,
             s.queue_high_water)
            for s in result.pe_stats
        ],
        "steal_requests": result.counters["steal_requests"],
        "steal_messages": _STEAL_MESSAGES[id(result)],
        "mem_summary": result.mem_summary,
        "arg_messages_local": result.counters["arg_messages_local"],
        "arg_messages_remote": result.counters["arg_messages_remote"],
        "value": result.value,
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name,params", [
    ("fib", {"n": 20}),
    ("quicksort", None),
    ("uts", None),
])
def test_flex8_bit_exact_with_parking(name, params, kernel, monkeypatch):
    # Parking exercises resume_at's virtual ancestry — the trickiest
    # ordering path of the kernel, so pin it on the reference engine too.
    use_kernel(monkeypatch, kernel)
    polled = run_flex(name, 8, quick=True, params=params,
                      park_idle_pes=False)
    parked = run_flex(name, 8, quick=True, params=params,
                      park_idle_pes=True)
    assert signature(parked) == signature(polled)
    # The speedup is real, not semantic: events were actually elided.
    assert parked.counters["park.events_elided"] > 0
    assert "park.events_elided" not in polled.counters


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("name,pes", [("uts", 8), ("fib", 16)])
def test_every_policy_bit_exact_with_parking(policy, name, pes):
    """The wakeup replay must reproduce *any* policy's elided picks.

    The replay contract (``repro/sched/base.py``): while a PE is
    parked every probe it would have run is a guaranteed miss, and the
    registry feeds each elided ``pick_victim``/``note_steal(victim,0,0)``
    pair back through the PE's scheduler.  A policy whose state could
    drift while parked (e.g. hints mutated by received messages) would
    diverge here.
    """
    polled = run_flex(name, pes, quick=True, steal_policy=policy,
                      park_idle_pes=False)
    parked = run_flex(name, pes, quick=True, steal_policy=policy,
                      park_idle_pes=True)
    assert signature(parked) == signature(polled)
    assert parked.counters["park.events_elided"] > 0


def test_lite_bit_exact_with_parking():
    polled = run_lite("quicksort", 8, quick=True, park_idle_pes=False)
    parked = run_lite("quicksort", 8, quick=True, park_idle_pes=True)
    assert signature(parked) == signature(polled)
    assert parked.counters["park.events_elided"] > 0


def test_lite_full_size_bit_exact_with_parking():
    """Full-size lite quicksort under coherent memory.

    Regression for a wake-ordering bug the quick-size runs cannot see:
    long-idle LiteArch PEs collide on identical poll ancestry, so their
    wakeup resumes must be issued in the polling heap's tie order (chain
    history, then park order).  Getting that order wrong flips same-tick
    memory-access interleavings between concurrently executing PEs, and
    only a working set large enough for bandwidth contention (the full
    input) turns the flip into a cycle-count difference.
    """
    polled = run_lite("quicksort", 8, park_idle_pes=False)
    parked = run_lite("quicksort", 8, park_idle_pes=True)
    assert signature(parked) == signature(polled)
    assert parked.counters["park.events_elided"] > 0


def test_cpu_baseline_bit_exact_with_parking():
    polled = run_cpu("fib", 8, quick=True, park_idle_pes=False)
    parked = run_cpu("fib", 8, quick=True, park_idle_pes=True)
    assert signature(parked) == signature(polled)
    assert parked.counters["park.events_elided"] > 0


@pytest.mark.parametrize("run", [run_flex, run_lite],
                         ids=["flex16", "lite16"])
def test_full_size_quicksort_16_bit_exact_with_parking(run):
    """Full-size quicksort at 16 PEs, the memory batch's size.

    These are the two jobs of the perfbench memory batch that spend the
    most host time in the wakeup replay: flex16 replays tens of
    thousands of virtual failed steals, and lite16 orders long lockstep
    idle chains on every wake.
    """
    polled = run("quicksort", 16, park_idle_pes=False)
    parked = run("quicksort", 16, park_idle_pes=True)
    assert signature(parked) == signature(polled)
    assert parked.counters["park.events_elided"] > 0
    if run is run_flex:
        assert (parked.counters["steal_requests"],
                *_STEAL_MESSAGES[id(parked)]) == (80_024, 29_978, 130_070)
