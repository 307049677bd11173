"""Unit tests for the worker context (the CPPWD port API)."""

import pytest

from repro.core.context import (
    ComputeOp,
    MemOp,
    SendArgOp,
    SpawnOp,
    SuccessorOp,
    Worker,
    WorkerContext,
)
from repro.core.exceptions import ProtocolError
from repro.core.pending import PendingTable
from repro.core.task import HOST_CONTINUATION, Task, make_task


@pytest.fixture
def ctx():
    table = PendingTable(owner=0)
    return WorkerContext(
        pe_id=3,
        alloc_successor=lambda t, k, n, s: table.alloc(t, k, n, s),
    )


def test_spawn_records_op_and_task(ctx):
    task = make_task("T", HOST_CONTINUATION, 1)
    ctx.spawn(task)
    assert ctx.ops == [SpawnOp(task)]
    assert ctx.spawned == [task]


def test_spawn_requires_task(ctx):
    with pytest.raises(ProtocolError):
        ctx.spawn("not a task")


def test_send_arg_recorded(ctx):
    ctx.send_arg(HOST_CONTINUATION, 42)
    assert ctx.ops == [SendArgOp(HOST_CONTINUATION, 42)]
    assert ctx.sent_args[0].value == 42


def test_make_successor_returns_valid_continuation(ctx):
    k = ctx.make_successor("SUM", HOST_CONTINUATION, 2)
    assert k.slot == 0
    assert isinstance(ctx.ops[0], SuccessorOp)
    assert ctx.ops[0].njoin == 2


def test_successors_counts_make_successor_calls(ctx):
    """The count LiteArch's no-successor check reads instead of scanning
    the op stream: one per created successor, none for other ops."""
    assert ctx.successors == 0
    ctx.compute(3)
    ctx.spawn(make_task("LEAF", HOST_CONTINUATION))
    ctx.send_arg(HOST_CONTINUATION, 1)
    assert ctx.successors == 0
    k = ctx.make_successor("SUM", HOST_CONTINUATION, 2)
    ctx.make_successor("SUM", k, 1)
    assert ctx.successors == 2
    assert ctx.successors == sum(isinstance(op, SuccessorOp)
                                 for op in ctx.ops)


def test_compute_accumulates(ctx):
    ctx.compute(5)
    ctx.compute(0)  # zero-cost compute records nothing
    ctx.compute(3)
    assert ctx.compute_cycles == 8
    assert [op for op in ctx.ops if isinstance(op, ComputeOp)] == [
        ComputeOp(5), ComputeOp(3),
    ]


def test_negative_compute_rejected(ctx):
    with pytest.raises(ProtocolError):
        ctx.compute(-1)


def test_memory_ops_recorded_in_order(ctx):
    ctx.read(0x1000, 64)
    ctx.write(0x2000, 4, scratchpad=True)
    ctx.read_block(0x3000, 256)
    assert ctx.ops == [
        MemOp(0x1000, 64, False, False),
        MemOp(0x2000, 4, True, True),
        MemOp(0x3000, 256, False, False),
    ]


def test_op_order_preserved(ctx):
    ctx.compute(1)
    task = make_task("T", HOST_CONTINUATION)
    ctx.spawn(task)
    ctx.send_arg(HOST_CONTINUATION, 0)
    kinds = [type(op) for op in ctx.ops]
    assert kinds == [ComputeOp, SpawnOp, SendArgOp]


def test_pe_id_exposed(ctx):
    assert ctx.pe_id == 3


class TypedWorker(Worker):
    name = "typed"
    task_types = ("A", "B")

    def execute(self, task, ctx):
        pass


def test_check_task_type_accepts_known():
    TypedWorker().check_task_type(make_task("A", HOST_CONTINUATION))


def test_check_task_type_rejects_unknown():
    with pytest.raises(ProtocolError):
        TypedWorker().check_task_type(make_task("C", HOST_CONTINUATION))


def test_worker_without_types_accepts_all():
    class AnyWorker(Worker):
        def execute(self, task, ctx):
            pass

    AnyWorker().check_task_type(make_task("ANYTHING", HOST_CONTINUATION))
