"""Unit tests for task and continuation primitives."""

import dataclasses
import pickle

import pytest

from repro.core.task import (
    HOST,
    HOST_CONTINUATION,
    Continuation,
    Task,
    make_task,
)


def test_continuation_with_slot():
    k = Continuation(owner=2, entry=7, slot=0)
    k1 = k.with_slot(3)
    assert k1.owner == 2 and k1.entry == 7 and k1.slot == 3
    assert k.slot == 0  # immutable original


def test_host_continuation():
    assert HOST_CONTINUATION.is_host
    assert HOST_CONTINUATION.owner == HOST
    assert not Continuation(0, 0, 0).is_host


def test_continuation_repr():
    assert "host" in repr(HOST_CONTINUATION)
    assert "pstore1[2]" in repr(Continuation(1, 2, 0))


def test_task_args_coerced_to_tuple():
    task = Task("T", HOST_CONTINUATION, [1, 2, 3])
    assert task.args == (1, 2, 3)


def test_task_arg_accessor_with_default():
    task = Task("T", HOST_CONTINUATION, (10,))
    assert task.arg(0) == 10
    assert task.arg(5) == 0
    assert task.arg(5, default="d") == "d"


def test_make_task():
    task = make_task("FIB", HOST_CONTINUATION, 4, 5)
    assert task.task_type == "FIB"
    assert task.args == (4, 5)


def test_task_equality_and_hash():
    a = make_task("T", HOST_CONTINUATION, 1)
    b = make_task("T", HOST_CONTINUATION, 1)
    assert a == b
    assert hash(a) == hash(b)
    assert a != make_task("T", HOST_CONTINUATION, 2)
    assert hash(Task("T", HOST_CONTINUATION, [1])) == hash(a)
    assert hash(Continuation(1, 2)) == hash(Continuation(1, 2, 0))
    # The generated hash of the field values: dict and set orders of
    # continuations depend on it.
    assert hash(Continuation(1, 2, 3)) == hash((1, 2, 3))


def test_continuations_are_values():
    # Continuations must be usable as task argument words (nw passes them
    # inside argument values).
    inner = Continuation(1, 5, 0)
    task = make_task("T", HOST_CONTINUATION, inner)
    assert task.args[0] is inner


RECORDS = [Continuation(2, 7, 1), make_task("T", HOST_CONTINUATION, 1, 2)]


@pytest.mark.parametrize("record", RECORDS, ids=["continuation", "task"])
def test_records_are_immutable(record):
    """Tasks and continuations are shared by queues, P-Store entries and
    telemetry; a write to one would corrupt every holder."""
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)


@pytest.mark.parametrize("record", RECORDS, ids=["continuation", "task"])
def test_records_pickle_round_trip(record):
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record)
    assert clone == record
    assert hash(clone) == hash(record)


def test_records_replace():
    k = Continuation(2, 7, 0)
    assert dataclasses.replace(k, slot=3) == k.with_slot(3)
    task = Task("T", k, (1, 2))
    moved = dataclasses.replace(task, args=[3])
    assert moved == Task("T", k, (3,))
    assert type(moved.args) is tuple
    assert task.args == (1, 2)


def test_task_args_tuple_kept_by_identity():
    class Words(tuple):
        pass

    plain = (1, 2)
    words = Words((3, 4))
    assert Task("T", HOST_CONTINUATION, plain).args is plain
    assert Task("T", HOST_CONTINUATION, words).args is words
    assert Task("T", HOST_CONTINUATION, iter([5])).args == (5,)
    assert Task("T", HOST_CONTINUATION).args == ()
