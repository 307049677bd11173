"""Work-stealing double-ended task queue (the TMU's task queue).

The owning worker pushes and pops at the *tail* in LIFO order, which walks
the task graph depth-first and gives good task locality; thieves steal from
the *head*, taking the oldest task, which is closest to the root of the
spawn tree and therefore represents the largest chunk of work
(Section III-A).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Optional, TypeVar

from repro.core.exceptions import TaskQueueOverflowError

T = TypeVar("T")


class WorkStealingDeque(Generic[T]):
    """Bounded double-ended queue with owner (tail) and thief (head) ends.

    An optional ``observer`` is notified on every empty/non-empty
    transition — the hook the accelerator's parked-PE wakeup scheduler
    uses to learn that work became visible (or stopped being visible)
    without polling.  The observer must implement
    ``deque_became_nonempty(deque)`` and ``deque_became_empty(deque)``.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "") -> None:
        self.capacity = capacity
        self.name = name
        self._items: Deque[T] = deque()
        self.observer = None
        self.high_water = 0
        self.pushes = 0
        self.steals = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    def push_tail(self, item: T) -> None:
        """Owner enqueues a task (newly spawned or newly readied)."""
        items = self._items
        depth = len(items)  # before the push
        if self.capacity is not None and depth >= self.capacity:
            raise TaskQueueOverflowError(
                f"task queue {self.name!r} overflow (capacity {self.capacity})"
            )
        items.append(item)
        self.pushes += 1
        if depth >= self.high_water:
            self.high_water = depth + 1
        if not depth and self.observer is not None:
            self.observer.deque_became_nonempty(self)

    def _took(self, item: T) -> T:
        if not self._items and self.observer is not None:
            self.observer.deque_became_empty(self)
        return item

    def pop_tail(self) -> Optional[T]:
        """Owner dequeues its most recently pushed task (LIFO)."""
        items = self._items
        if items:
            item = items.pop()
            if not items and self.observer is not None:
                self.observer.deque_became_empty(self)
            return item
        return None

    def pop_head(self) -> Optional[T]:
        """Owner dequeues the oldest task (FIFO discipline ablation)."""
        if self._items:
            return self._took(self._items.popleft())
        return None

    def steal_head(self) -> Optional[T]:
        """Thief dequeues the oldest task, or ``None`` if empty."""
        if self._items:
            self.steals += 1
            return self._took(self._items.popleft())
        return None

    def steal_tail(self) -> Optional[T]:
        """Thief dequeues the newest task (steal-end ablation)."""
        if self._items:
            self.steals += 1
            return self._took(self._items.pop())
        return None

    def peek_head(self) -> Optional[T]:
        return self._items[0] if self._items else None

    def snapshot(self) -> List[T]:
        """Copy of the queue contents, head first (for instrumentation)."""
        return list(self._items)

    def __repr__(self) -> str:
        return f"WorkStealingDeque({self.name!r}, len={len(self._items)})"
