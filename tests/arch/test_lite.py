"""Integration tests for the LiteArch timed engine."""

import pytest

from repro.arch.config import flex_config, lite_config
from repro.arch.lite import LiteAccelerator, LiteProgram, chunk_frontier
from repro.core.context import Worker
from repro.core.exceptions import ConfigError, ProtocolError
from repro.core.task import Task


class EchoWorker(Worker):
    """Leaf worker: returns its argument times ten."""

    task_types = ("ECHO",)

    def execute(self, task, ctx):
        ctx.compute(5)
        ctx.send_arg(task.k, task.args[0] * 10)


class EchoProgram(LiteProgram):
    """Two rounds; the second depends on the first round's values."""

    def __init__(self, count):
        self.count = count
        self.final = None

    def rounds(self):
        tasks = [Task("ECHO", self.host_k(i, 0), (i,))
                 for i in range(self.count)]
        values = yield tasks
        tasks = [Task("ECHO", self.host_k(i, 1), (v,))
                 for i, v in enumerate(values)]
        values = yield tasks
        self.final = values

    def result(self):
        return sum(self.final)


def run_echo(count=8, pes=4, **overrides):
    overrides.setdefault("memory", "perfect")
    accel = LiteAccelerator(lite_config(pes, **overrides), EchoWorker())
    return accel.run(EchoProgram(count)), accel


def test_rounds_and_values_in_task_order():
    result, accel = run_echo(8, 4)
    assert result.value == sum(i * 100 for i in range(8))
    assert accel.rounds_executed == 2


def test_requires_lite_config():
    with pytest.raises(ConfigError):
        LiteAccelerator(flex_config(4), EchoWorker())


@pytest.mark.parametrize("policy", ["random", "hierarchical"])
def test_pes_never_steal_and_steal_services_raise(policy):
    accel = LiteAccelerator(lite_config(8, memory="perfect",
                                        steal_policy=policy), EchoWorker())
    for pe in accel.pes:
        assert not pe.steal_enabled
        assert pe.sched.hops == ()
    with pytest.raises(ProtocolError):
        accel.victim_tiles
    with pytest.raises(ProtocolError):
        accel.steal_from(0)
    result = accel.run(EchoProgram(8))
    assert result.total_steals == 0
    assert all(s.steal_attempts == 0 for s in result.pe_stats)


def test_more_pes_faster():
    slow, _ = run_echo(32, 1)
    fast, _ = run_echo(32, 8)
    assert slow.cycles > fast.cycles


def test_no_steals_in_lite():
    result, _ = run_echo(16, 4)
    assert result.total_steals == 0
    assert all(p.steal_attempts == 0 for p in result.pe_stats)


def test_dynamic_worker_rejected():
    class Spawner(Worker):
        task_types = ("ECHO",)

        def execute(self, task, ctx):
            ctx.spawn(Task("ECHO", task.k, (0,)))

    class OneRound(LiteProgram):
        def rounds(self):
            yield [Task("ECHO", self.host_k(0), (1,))]

    accel = LiteAccelerator(lite_config(2, memory="perfect"), Spawner())
    with pytest.raises(ProtocolError):
        accel.run(OneRound())


def test_successor_creation_rejected():
    class Joiner(Worker):
        task_types = ("ECHO",)

        def execute(self, task, ctx):
            ctx.make_successor("X", task.k, 1)

    class OneRound(LiteProgram):
        def rounds(self):
            yield [Task("ECHO", self.host_k(0), (1,))]

    accel = LiteAccelerator(lite_config(2, memory="perfect"), Joiner())
    with pytest.raises(ProtocolError):
        accel.run(OneRound())


def test_non_host_send_rejected():
    from repro.core.task import Continuation

    class Mischief(Worker):
        task_types = ("ECHO",)

        def execute(self, task, ctx):
            ctx.send_arg(Continuation(0, 0, 0), 1)

    class OneRound(LiteProgram):
        def rounds(self):
            yield [Task("ECHO", self.host_k(0), (1,))]

    accel = LiteAccelerator(lite_config(2, memory="perfect"), Mischief())
    with pytest.raises(ProtocolError):
        accel.run(OneRound())


def test_empty_round_skipped():
    class WithEmpty(LiteProgram):
        def __init__(self):
            self.final = 0

        def rounds(self):
            values = yield [Task("ECHO", self.host_k(0), (4,))]
            yield []  # empty round: no tasks dispatched
            self.final = values[0]

        def result(self):
            return self.final

    accel = LiteAccelerator(lite_config(2, memory="perfect"), EchoWorker())
    result = accel.run(WithEmpty())
    assert result.value == 40
    assert accel.rounds_executed == 1


def test_host_overhead_charged():
    fast, _ = run_echo(16, 4, lite_round_overhead_cycles=0,
                       lite_per_task_host_cycles=0)
    slow, _ = run_echo(16, 4, lite_round_overhead_cycles=100000)
    assert slow.cycles > fast.cycles


def test_static_assignment_round_robin():
    # With 4 PEs and two rounds of 8 equal tasks, each PE executes 4.
    result, _ = run_echo(8, 4)
    counts = [p.tasks_executed for p in result.pe_stats]
    assert counts == [4, 4, 4, 4]


class TestChunkFrontier:
    def test_empty(self):
        assert chunk_frontier([], 4) == []

    def test_partition_complete(self):
        frontier = list(range(100))
        chunks = chunk_frontier(frontier, 4)
        flat = [x for chunk in chunks for x in chunk]
        assert flat == frontier

    def test_min_chunk_respected_for_thin_rounds(self):
        chunks = chunk_frontier(list(range(20)), 32, min_chunk=8)
        assert all(len(c) <= 8 for c in chunks)
        assert len(chunks) == 3

    def test_max_chunk_respected(self):
        chunks = chunk_frontier(list(range(10000)), 1, max_chunk=64)
        assert max(len(c) for c in chunks) == 64
