"""Unit tests for pending-task (join counter) semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import ProtocolError, PStoreFullError
from repro.core.pending import PendingTable
from repro.core.task import HOST_CONTINUATION, Continuation


def test_alloc_and_single_join():
    table = PendingTable(owner=0)
    cont = table.alloc("SUM", HOST_CONTINUATION, njoin=1)
    assert cont.owner == 0 and cont.slot == 0
    ready = table.deliver(cont, 42)
    assert ready is not None
    assert ready.task_type == "SUM"
    assert ready.args == (42,)
    assert ready.k == HOST_CONTINUATION
    assert table.is_empty


def test_two_way_join_counts_down():
    table = PendingTable(owner=0)
    cont = table.alloc("SUM", HOST_CONTINUATION, njoin=2)
    assert table.deliver(cont.with_slot(1), "b") is None
    ready = table.deliver(cont.with_slot(0), "a")
    assert ready.args == ("a", "b")  # slot order, not delivery order


def test_static_args_appended_after_joined():
    table = PendingTable(owner=0)
    cont = table.alloc("T", HOST_CONTINUATION, njoin=2, static_args=(9, 8))
    table.deliver(cont.with_slot(0), 1)
    ready = table.deliver(cont.with_slot(1), 2)
    assert ready.args == (1, 2, 9, 8)


def test_double_delivery_to_slot_rejected():
    table = PendingTable(owner=0)
    cont = table.alloc("T", HOST_CONTINUATION, njoin=2)
    table.deliver(cont, 1)
    with pytest.raises(ProtocolError):
        table.deliver(cont, 2)


def test_none_argument_still_guards_its_slot():
    """``None`` is a legal argument value, not a free slot: writing the
    slot again must trip the double-write check, not ready the task."""
    table = PendingTable(owner=0, capacity=4)
    k = table.alloc("JOIN", HOST_CONTINUATION, 2)
    assert table.deliver(k.with_slot(0), None) is None
    with pytest.raises(ProtocolError, match="written twice"):
        table.deliver(k.with_slot(0), 5)
    assert table.deliver(k.with_slot(1), 5).args == (None, 5)


def test_delivery_to_unallocated_entry_rejected():
    table = PendingTable(owner=0)
    with pytest.raises(ProtocolError):
        table.deliver(Continuation(0, 99, 0), 1)


def test_delivery_to_wrong_owner_rejected():
    table = PendingTable(owner=0)
    table.alloc("T", HOST_CONTINUATION, njoin=1)
    with pytest.raises(ProtocolError):
        table.deliver(Continuation(1, 0, 0), 1)


def test_slot_out_of_range_rejected():
    table = PendingTable(owner=0)
    cont = table.alloc("T", HOST_CONTINUATION, njoin=1)
    with pytest.raises(ProtocolError):
        table.deliver(cont.with_slot(1), 1)


def test_njoin_must_be_positive():
    table = PendingTable(owner=0)
    with pytest.raises(ProtocolError):
        table.alloc("T", HOST_CONTINUATION, njoin=0)


def test_capacity_enforced_and_entries_recycled():
    table = PendingTable(owner=0, capacity=2)
    c1 = table.alloc("A", HOST_CONTINUATION, 1)
    table.alloc("B", HOST_CONTINUATION, 1)
    with pytest.raises(PStoreFullError):
        table.alloc("C", HOST_CONTINUATION, 1)
    table.deliver(c1, 0)  # frees one entry
    table.alloc("C", HOST_CONTINUATION, 1)  # fits again
    assert len(table) == 2


def test_high_water_and_alloc_count():
    table = PendingTable(owner=0)
    conts = [table.alloc("T", HOST_CONTINUATION, 1) for _ in range(5)]
    for cont in conts:
        table.deliver(cont, 0)
    assert table.high_water == 5
    assert table.alloc_count == 5
    assert len(table) == 0


def test_creator_tracking():
    table = PendingTable(owner=0)
    cont = table.alloc("T", HOST_CONTINUATION, 1, creator=3)
    assert table.creator_of(cont.entry) == 3


def test_entry_lookup_missing():
    table = PendingTable(owner=0)
    with pytest.raises(ProtocolError):
        table.entry(0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.lists(st.tuples(st.sampled_from(["alloc", "deliver", "free"]),
                          st.integers(min_value=0, max_value=1000)),
                max_size=120))
def test_entry_ids_match_an_eager_free_list(capacity, steps):
    """A bounded table hands out ids in the order of a
    ``list(range(capacity))`` free list popped at its tail, with freed
    ids pushed back; ``PStoreFullError`` fires exactly at capacity."""
    table = PendingTable(owner=0, capacity=capacity)
    free = list(range(capacity))
    live = []
    for action, pick in steps:
        if action == "alloc":
            if not free:
                assert len(live) == capacity
                with pytest.raises(PStoreFullError):
                    table.alloc("T", HOST_CONTINUATION, 1)
            else:
                cont = table.alloc("T", HOST_CONTINUATION, 1)
                assert cont.entry == free.pop()
                live.append(cont.entry)
        elif live:
            entry = live.pop(pick % len(live))
            if action == "deliver":
                ready = table.deliver(Continuation(0, entry, 0), pick)
                assert ready.args == (pick,)
            else:  # rollback of a NACKed attempt
                table.free(entry)
            free.append(entry)
        assert len(table) == len(live)
