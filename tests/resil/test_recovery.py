"""Recovery mechanisms: each fault kind either heals or fails loudly.

Integration tests running real benchmarks under injected faults.  With
the matching recovery knob on, the run must complete with a *verified*
result (``run_flex`` raises on a wrong answer) and every injected fault
must be recorded as recovered; with the knob at its fail-fast default,
the fault must surface as a typed, diagnosable error — never a silent
wrong answer and never a bare hang.
"""

import pytest

from repro.arch.accelerator import FlexAccelerator
from repro.arch.config import flex_config
from repro.core.context import Worker
from repro.core.exceptions import (
    DataCorruptionError,
    DeadlockError,
    ProtocolError,
    PStoreFullError,
    TaskQueueOverflowError,
)
from repro.core.task import HOST_CONTINUATION, Task
from repro.harness.runners import run_flex
from repro.obs import attach_telemetry
from repro.resil.faults import FaultPlan, FaultSpec, attach_faults

GUARD = dict(park_idle_pes=False, watchdog_interval=100_000)


def fault_counters(result):
    return {k: v for k, v in result.counters.items()
            if k.startswith("faults.")}


@pytest.mark.parametrize("kind,spec,knobs", [
    ("steal-drop", FaultSpec(steal_drop_rate=0.3),
     dict(steal_retry=True)),
    ("steal-delay", FaultSpec(steal_delay_rate=0.3), {}),
    ("arg-drop", FaultSpec(arg_drop_rate=0.05),
     dict(arg_retransmit=True)),
    ("arg-dup", FaultSpec(arg_dup_rate=0.05),
     dict(arg_retransmit=True)),
    ("arg-delay", FaultSpec(arg_delay_rate=0.2), {}),
    ("pe-transient", FaultSpec(pe_fault_rate=0.05),
     dict(pe_fault_retry=True)),
    ("pstore-poison", FaultSpec(pstore_poison_rate=0.05),
     dict(pstore_ecc=True)),
])
def test_single_kind_fully_recovers(kind, spec, knobs):
    result = run_flex("fib", 4, quick=True, faults=spec, **GUARD, **knobs)
    counters = fault_counters(result)
    assert counters[f"faults.injected.{kind}"] > 0
    assert counters["faults.recovered"] == counters["faults.injected"]


def test_every_task_refaulted_still_completes():
    """pe_fault_rate=1.0: every execution faults once and is re-executed."""
    result = run_flex("fib", 4, quick=True, params={"n": 8},
                      faults=FaultSpec(pe_fault_rate=1.0),
                      pe_fault_retry=True, **GUARD)
    assert sum(s.pe_faults for s in result.pe_stats) == result.tasks_executed


def test_poison_without_ecc_raises_corruption():
    with pytest.raises(DataCorruptionError, match="parity"):
        run_flex("fib", 4, quick=True, park_idle_pes=False,
                 faults=FaultSpec(pstore_poison_rate=1.0))


def test_duplicate_without_retransmit_is_loud():
    """Undetected duplicates hit the double-write check, not silence."""
    with pytest.raises(ProtocolError):
        run_flex("fib", 4, quick=True, park_idle_pes=False,
                 faults=FaultSpec(arg_dup_rate=1.0))


def test_stale_duplicate_without_retransmit_is_a_protocol_error():
    """A duplicate that reaches a freed entry fails as a ProtocolError
    before the P-Store counts it or draws a poison decision: with ECC on
    and every write poisoned, only the one real delivery was corrected."""
    class OneJoin(Worker):
        task_types = ("ROOT", "LEAF", "DONE")

        def execute(self, task, ctx):
            if task.task_type == "ROOT":
                succ = ctx.make_successor("DONE", task.k, 1)
                ctx.spawn(Task("LEAF", succ))
            else:
                ctx.send_arg(task.k, 1)

    accel = FlexAccelerator(
        flex_config(1, memory="perfect", park_idle_pes=False,
                    pstore_ecc=True),
        OneJoin(),
    )
    plan = attach_faults(accel, FaultPlan(FaultSpec(
        arg_dup_rate=1.0, pstore_poison_rate=1.0)))
    with pytest.raises(ProtocolError, match="unallocated"):
        accel.run(Task("ROOT", HOST_CONTINUATION))
    (pstore,) = accel.pstores
    assert pstore.stats.deliveries == 1
    assert pstore.stats.poison_corrected == 1
    assert plan.injected == {"arg-dup": 1, "pstore-poison": 1}


def test_dropped_args_without_retransmit_diagnosed():
    # pstore_entries is oversized so every join can be allocated and
    # stranded: the failure mode under test is stagnation, not capacity.
    interval = 2000
    with pytest.raises(DeadlockError, match="outstanding") as ei:
        run_flex("fib", 4, quick=True, park_idle_pes=False,
                 watchdog_interval=interval, pstore_entries=4096,
                 faults=FaultSpec(arg_drop_rate=1.0))
    # Spawning still makes progress into the second interval (the
    # fault-free run takes ~3.2k cycles), so detection lands two
    # intervals after the last observed progress: cycle 6000, far below
    # the 200M-cycle budget the stall would otherwise burn.
    assert ei.value.diagnostics["cycle"] <= 3 * interval


def test_non_idempotent_worker_rejected_on_reexecution():
    class Impure(Worker):
        task_types = ("R",)
        calls = 0

        def execute(self, task, ctx):
            Impure.calls += 1
            ctx.compute(Impure.calls)  # drifts between attempts
            ctx.send_arg(task.k, 0)

    accel = FlexAccelerator(
        flex_config(2, memory="perfect", park_idle_pes=False,
                    pe_fault_retry=True),
        Impure(),
    )
    attach_faults(accel, FaultPlan(FaultSpec(pe_fault_rate=1.0)))
    with pytest.raises(ProtocolError, match="non-idempotent"):
        accel.run(Task("R", HOST_CONTINUATION))


class TestPStoreBackpressure:
    """fib at 4 PEs needs ~48 P-Store entries; at 40 the raw config
    raises while backpressure absorbs the transient overshoot (values
    pinned by experiment — the raw failure is the regression guard)."""

    ENTRIES = 40

    def test_undersized_raw_raises_enriched_error(self):
        with pytest.raises(PStoreFullError) as ei:
            run_flex("fib", 4, quick=True, park_idle_pes=False,
                     pstore_entries=self.ENTRIES)
        err = ei.value
        assert err.tile == 0
        assert err.occupancy == err.capacity == self.ENTRIES
        assert err.task_type == "SUM"
        assert isinstance(err.creator_pe, int)
        assert "pstore_backpressure" in str(err)

    def test_undersized_backpressure_recovers(self):
        result = run_flex("fib", 4, quick=True, pstore_entries=self.ENTRIES,
                          pstore_backpressure=True, **GUARD)
        assert sum(s.pstore_nacks for s in result.pe_stats) > 0

    @pytest.mark.parametrize("park", [False, True])
    def test_backpressure_run_pinned(self, park):
        """The NACK retry path (reverse-order rollback, then backoff)
        replays the same timeline with parking on and off."""
        result = run_flex("fib", 4, quick=True, pstore_entries=self.ENTRIES,
                          pstore_backpressure=True, park_idle_pes=park,
                          watchdog_interval=100_000)
        assert result.cycles == 3195
        assert [s.pstore_nacks for s in result.pe_stats] == [0, 0, 1, 2]
        assert result.value == 377

    def test_structural_exhaustion_still_terminates(self):
        """Backpressure cannot conjure capacity: when the pending
        footprint exceeds the store structurally, the retry budget
        expires into a diagnostic error instead of a livelock."""
        with pytest.raises(PStoreFullError, match="backpressure retries"):
            run_flex("fib", 4, quick=True, pstore_entries=8,
                     pstore_backpressure=True, **GUARD)


class TestSpawnOverflowInline:
    class Fanout(Worker):
        task_types = ("ROOT", "LEAF", "SUM")

        def execute(self, task, ctx):
            if task.task_type == "ROOT":
                k = ctx.make_successor("SUM", task.k, 8)
                for i in range(8):
                    ctx.spawn(Task("LEAF", k.with_slot(i)))
            elif task.task_type == "LEAF":
                ctx.send_arg(task.k, 1)
            else:
                ctx.send_arg(task.k, sum(task.args))

    def accel(self, **overrides):
        return FlexAccelerator(
            flex_config(2, memory="perfect", task_queue_entries=2,
                        park_idle_pes=False, **overrides),
            self.Fanout(),
        )

    def test_overflow_raises_enriched_error(self):
        with pytest.raises(TaskQueueOverflowError,
                           match="spawn_overflow_inline"):
            self.accel().run(Task("ROOT", HOST_CONTINUATION))

    def test_inline_execution_degrades_gracefully(self):
        accel = self.accel(spawn_overflow_inline=True)
        result = accel.run(Task("ROOT", HOST_CONTINUATION))
        assert result.value == 8
        assert sum(pe.stats.inline_spawns for pe in accel.pes) > 0

    def test_inline_execution_pinned(self):
        """A child an overflowing spawn runs inline executes inside the
        spawning task's exec window and shares its busy window; the
        timeline is pinned."""
        accel = self.accel(spawn_overflow_inline=True)
        result = accel.run(Task("ROOT", HOST_CONTINUATION))
        assert result.cycles == 101
        assert [s.inline_spawns for s in result.pe_stats] == [0, 6]
        assert [s.tasks_executed for s in result.pe_stats] == [0, 10]
        # The six inline LEAF tasks are not charged busy time twice.
        assert [s.busy_cycles for s in result.pe_stats] == [0, 21]
        accel = self.accel(spawn_overflow_inline=True)
        sink = attach_telemetry(accel)
        assert accel.run(Task("ROOT", HOST_CONTINUATION)).cycles == 101
        (root,) = [t for t in sink.tasks if t.task_type == "ROOT"]
        assert (root.exec_start, root.exec_end) == (37, 55)
        inline = sorted(
            (t.exec_start, t.exec_end) for t in sink.tasks
            if t.task_type == "LEAF" and t.exec_start < root.exec_end
        )
        assert inline == [(44 + 2 * i, 45 + 2 * i) for i in range(6)]
        assert all(root.exec_start <= start <= end <= root.exec_end
                   for start, end in inline)

    @pytest.mark.parametrize("max_cycles", [45, 47])
    def test_watchdog_dates_the_resumed_parent(self, max_cycles):
        """Once an inline child ends, the watchdog dates its parent from
        the parent's own start: ROOT started at cycle 37, and its first
        two inline LEAFs ran at 44-45 and 46-47."""
        accel = self.accel(spawn_overflow_inline=True)
        with pytest.raises(DeadlockError,
                           match="pe1: executing 'ROOT' since cycle 37,"):
            accel.run(Task("ROOT", HOST_CONTINUATION), max_cycles=max_cycles)

    def test_inline_children_keep_their_spawner_in_telemetry(self):
        """Every LEAF, queued or run inline, records ROOT as its parent
        and a dependency on it: no ROOT->LEAF critical-path edge is lost
        after the first inline child ends."""
        accel = self.accel(spawn_overflow_inline=True)
        sink = attach_telemetry(accel)
        accel.run(Task("ROOT", HOST_CONTINUATION))
        (root,) = [t for t in sink.tasks if t.task_type == "ROOT"]
        leaves = [t for t in sink.tasks if t.task_type == "LEAF"]
        assert len(leaves) == 8
        assert [t.parent for t in leaves] == [root.uid] * 8
        assert all(root.uid in [dep for dep, _ in t.deps] for t in leaves)
