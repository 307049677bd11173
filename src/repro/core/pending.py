"""Pending-task storage semantics (the P-Store of Section III-A).

A pending task is a task whose arguments are not all available yet.  Each
entry tracks a join counter ``j`` equal to the number of missing arguments;
delivering an argument decrements ``j``, and when it reaches zero the entry
is deallocated and the now-ready task is returned so the scheduler can place
it (greedily, on the PE that produced the last argument).

:class:`PendingTable` is the platform-independent functional model; the
hardware P-Store in :mod:`repro.arch.pstore` wraps it with free-list timing,
port contention and network access, and the software runtime in
:mod:`repro.cpu` charges instruction overheads around the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.exceptions import PStoreFullError, ProtocolError
from repro.core.task import Continuation, Task

#: Marks an argument slot no delivery has written yet.  ``None`` is a
#: legal argument value, so it cannot double as the marker.
_UNWRITTEN = object()


@dataclass(slots=True)
class PendingEntry:
    """One allocated P-Store entry (metadata + join counter + arg array)."""

    task_type: str
    k: Continuation
    njoin: int
    remaining: int
    args: List
    static_args: Tuple
    creator: Optional[int] = None  # PE id that allocated the entry, if known


class PendingTable:
    """Fixed-capacity table of pending tasks with a free list.

    Parameters
    ----------
    owner:
        Identifier baked into the continuations this table hands out (the
        tile id for a hardware P-Store).
    capacity:
        Number of entries; ``None`` means unbounded (functional execution).

    A bounded table hands out freed ids first, most recently freed first,
    then the never-used ids counting down from ``capacity - 1``: the
    order a ``list(range(capacity))`` free list popped at its tail gives,
    without building that list (the CPU model's stores hold 65,536
    entries each).  An unbounded table counts ids up and never reuses
    them.
    """

    def __init__(self, owner: int, capacity: Optional[int] = None) -> None:
        self.owner = owner
        self.capacity = capacity
        #: Allocated entries by id.  Read it to test liveness without a
        #: call; only this class's methods change it.
        self.live: dict = {}
        #: Freed ids of a bounded table, reused last in, first out.
        self._free: List[int] = []
        #: Ids never handed out are ``0 .. _unused - 1``.
        self._unused = capacity or 0
        self._next_id = 0
        self.high_water = 0
        self.alloc_count = 0

    def __len__(self) -> int:
        return len(self.live)

    def alloc(
        self,
        task_type: str,
        k: Continuation,
        njoin: int,
        static_args: Tuple = (),
        creator: Optional[int] = None,
    ) -> Continuation:
        """Allocate a pending task and return a continuation to its slot 0.

        The ready task's arguments will be the ``njoin`` joined values in
        slot order followed by ``static_args``.
        """
        if njoin < 1:
            raise ProtocolError(f"pending task needs at least one join: {njoin}")
        if self.capacity is None:
            entry_id = self._next_id
            self._next_id += 1
        elif self._free:
            entry_id = self._free.pop()
        elif self._unused:
            self._unused -= 1
            entry_id = self._unused
        else:
            raise PStoreFullError(
                f"P-Store {self.owner} full ({self.capacity} entries)"
            )
        self.live[entry_id] = PendingEntry(
            task_type, k, njoin, njoin, [_UNWRITTEN] * njoin,
            tuple(static_args), creator,
        )
        self.alloc_count += 1
        if len(self.live) > self.high_water:
            self.high_water = len(self.live)
        return Continuation(self.owner, entry_id, 0)

    def deliver(self, cont: Continuation, value) -> Optional[Task]:
        """Write ``value`` into the slot ``cont`` points at.

        Returns the ready :class:`Task` (and frees the entry) when this was
        the last missing argument, else ``None``.
        """
        if cont.owner != self.owner:
            raise ProtocolError(
                f"continuation {cont!r} delivered to P-Store {self.owner}"
            )
        entry = self.live.get(cont.entry)
        if entry is None:
            raise ProtocolError(f"delivery to unallocated entry {cont!r}")
        if not (0 <= cont.slot < entry.njoin):
            raise ProtocolError(
                f"slot {cont.slot} out of range for {entry.njoin}-join entry"
            )
        if entry.args[cont.slot] is not _UNWRITTEN:
            raise ProtocolError(f"slot {cont.slot} of {cont!r} written twice")
        entry.args[cont.slot] = value
        entry.remaining -= 1
        if entry.remaining:
            return None
        del self.live[cont.entry]
        if self.capacity is not None:
            self._free.append(cont.entry)
        return Task(entry.task_type, entry.k, tuple(entry.args) + entry.static_args)

    def free(self, entry_id: int) -> None:
        """Deallocate a live entry without readying it (rollback path).

        Used by allocation backpressure: a task attempt that received a
        P-Store NACK mid-execution returns the entries it already
        allocated before retrying, so a retry never leaks capacity.
        """
        if entry_id not in self.live:
            raise ProtocolError(f"cannot free unallocated entry {entry_id}")
        del self.live[entry_id]
        if self.capacity is not None:
            self._free.append(entry_id)

    def entry(self, entry_id: int) -> PendingEntry:
        """Look up a live entry (for instrumentation and validation)."""
        if entry_id not in self.live:
            raise ProtocolError(f"entry {entry_id} is not allocated")
        return self.live[entry_id]

    def creator_of(self, entry_id: int) -> Optional[int]:
        """PE id that allocated ``entry_id``, if the entry is live."""
        return self.entry(entry_id).creator

    @property
    def is_empty(self) -> bool:
        return not self.live

    def __repr__(self) -> str:
        cap = self.capacity if self.capacity is not None else "inf"
        return f"PendingTable(owner={self.owner}, live={len(self)}, cap={cap})"
