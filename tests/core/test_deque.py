"""Unit and property tests for the work-stealing deque."""

import pytest
from hypothesis import given, strategies as st

from repro.core.deque import WorkStealingDeque
from repro.core.exceptions import TaskQueueOverflowError


def test_lifo_owner_discipline():
    dq = WorkStealingDeque()
    for i in range(3):
        dq.push_tail(i)
    assert dq.pop_tail() == 2
    assert dq.pop_tail() == 1
    assert dq.pop_tail() == 0
    assert dq.pop_tail() is None


def test_thief_takes_oldest():
    dq = WorkStealingDeque()
    for i in range(3):
        dq.push_tail(i)
    assert dq.steal_head() == 0
    assert dq.pop_tail() == 2
    assert dq.steal_head() == 1


def test_steal_tail_ablation_end():
    dq = WorkStealingDeque()
    dq.push_tail("old")
    dq.push_tail("new")
    assert dq.steal_tail() == "new"


def test_pop_head_fifo_ablation():
    dq = WorkStealingDeque()
    dq.push_tail("a")
    dq.push_tail("b")
    assert dq.pop_head() == "a"
    assert dq.pop_head() == "b"
    assert dq.pop_head() is None


def test_capacity_overflow():
    dq = WorkStealingDeque(capacity=2)
    dq.push_tail(1)
    dq.push_tail(2)
    with pytest.raises(TaskQueueOverflowError):
        dq.push_tail(3)


def test_empty_steal_returns_none():
    dq = WorkStealingDeque()
    assert dq.steal_head() is None
    assert dq.steal_tail() is None


def test_stats_tracking():
    dq = WorkStealingDeque()
    for i in range(4):
        dq.push_tail(i)
    dq.pop_tail()
    dq.steal_head()
    assert dq.pushes == 4
    assert dq.steals == 1
    assert dq.high_water == 4
    assert len(dq) == 2
    assert dq.snapshot() == [1, 2]
    assert dq.peek_head() == 1


@given(st.lists(st.sampled_from(["push", "pop", "steal"]), max_size=200))
def test_matches_list_model(ops):
    """The deque behaves exactly like a plain list with append/pop."""
    dq = WorkStealingDeque()
    model = []
    counter = 0
    for op in ops:
        if op == "push":
            dq.push_tail(counter)
            model.append(counter)
            counter += 1
        elif op == "pop":
            assert dq.pop_tail() == (model.pop() if model else None)
        else:
            assert dq.steal_head() == (model.pop(0) if model else None)
        assert len(dq) == len(model)
        assert dq.snapshot() == model


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=100))
def test_capacity_never_exceeded(capacity, pushes):
    dq = WorkStealingDeque(capacity=capacity)
    overflowed = False
    for i in range(pushes):
        try:
            dq.push_tail(i)
        except TaskQueueOverflowError:
            overflowed = True
            break
    assert len(dq) <= capacity
    assert overflowed == (pushes > capacity)


class _Transitions:
    """Observer recording the deque's empty/non-empty notifications."""

    def __init__(self):
        self.events = []

    def deque_became_nonempty(self, dq):
        self.events.append("nonempty")

    def deque_became_empty(self, dq):
        self.events.append("empty")


@given(st.lists(st.sampled_from(["push_tail", "pop_tail", "pop_head",
                                 "steal_head", "steal_tail"]),
                max_size=200))
def test_observer_sees_each_empty_transition_once(ops):
    """Exactly one notification per 0 -> 1 and per 1 -> 0 transition,
    none otherwise (the parked-PE wakeup relies on both)."""
    dq = WorkStealingDeque()
    dq.observer = seen = _Transitions()
    expected = []
    for op in ops:
        before = len(dq)
        if op == "push_tail":
            dq.push_tail(before)
        else:
            getattr(dq, op)()
        after = len(dq)
        if (before, after) == (0, 1):
            expected.append("nonempty")
        elif (before, after) == (1, 0):
            expected.append("empty")
        assert seen.events == expected
