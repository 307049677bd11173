"""Set-associative cache with MOESI line states and LRU replacement.

The cache is a timing/state model: it tracks which lines are present and in
which coherence state, but holds no data (functional state lives in
:class:`repro.mem.memory.SimMemory`).  Misses, upgrades and evictions are
resolved by the enclosing :class:`repro.mem.coherence.CoherenceDomain`,
which implements the MOESI snooping protocol of Table III.

A stored entry is always valid: ``INVALID`` is represented by absence, so
"present" and "valid" are the same test.  The coherence domain's per-line
path works on :attr:`Cache._sets` directly.  :meth:`Cache.set_index` is
the one definition of the line-to-set mapping; that path computes the
same index inline for the L1s and the L2, and
``tests/mem/test_coherence.py`` pins the two together.

Sets are built lazily: every set starts as the one shared, read-only
:data:`EMPTY_SET`, and an insert first swaps in a fresh ``OrderedDict``
(:meth:`Cache.fill`, and the coherence domain's inline L1 fill).
Lookups, ``pop(line, None)`` and LRU touches of a present line never
need that swap, so the access path carries no branch for it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple


class State(Enum):
    """MOESI coherence states."""

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def is_valid(self) -> bool:
        return self is not State.INVALID

    @property
    def is_dirty(self) -> bool:
        """States whose data differs from memory and must be written back."""
        return self in (State.MODIFIED, State.OWNED)

    @property
    def can_write(self) -> bool:
        """States that permit a write hit without a bus transaction."""
        return self in (State.MODIFIED, State.EXCLUSIVE)


class _EmptySet(OrderedDict):
    """A set that holds no line and refuses inserts."""

    __slots__ = ()

    def __setitem__(self, line, state):
        raise TypeError(
            "EMPTY_SET is shared by every unfilled set: swap in a fresh "
            "set before inserting"
        )


#: The set every cache set starts as (see the module docstring).
EMPTY_SET = _EmptySet()


@dataclass
class CacheStats:
    """Per-cache access statistics."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    upgrades: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    snoop_hits: int = 0
    invalidations_received: int = 0

    @property
    def accesses(self) -> int:
        return (self.read_hits + self.read_misses
                + self.write_hits + self.write_misses)

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One cache: a set-indexed array of (tag → state) with LRU order.

    Parameters are in bytes; ``size`` must be a multiple of
    ``assoc * line_size``.
    """

    def __init__(
        self,
        name: str,
        size: int,
        assoc: int,
        line_size: int = 64,
    ) -> None:
        if size % (assoc * line_size):
            raise ValueError(
                f"cache size {size} not divisible by assoc*line "
                f"({assoc}*{line_size})"
            )
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = size // (assoc * line_size)
        # Each set is an OrderedDict: line_base -> State, LRU first;
        # EMPTY_SET until its first fill.
        self._sets: List[OrderedDict] = [EMPTY_SET] * self.num_sets
        self.stats = CacheStats()

    def set_index(self, line: int) -> int:
        """Index of the set that holds ``line``."""
        return (line // self.line_size) % self.num_sets

    def _set_of(self, line: int) -> OrderedDict:
        return self._sets[self.set_index(line)]

    # ------------------------------------------------------------------
    # Lookup / state manipulation.  These are mechanism only; the policy
    # (what to do on a miss) lives in the coherence domain.
    # ------------------------------------------------------------------
    def lookup(self, line: int) -> State:
        """State of ``line`` (``INVALID`` if absent).  Does not touch LRU."""
        return self._set_of(line).get(line, State.INVALID)

    def touch(self, line: int) -> None:
        """Mark ``line`` most-recently-used."""
        s = self._set_of(line)
        if line in s:
            s.move_to_end(line)

    def set_state(self, line: int, state: State) -> None:
        """Update the state of a *present* line, or drop it on INVALID."""
        s = self._set_of(line)
        if state is State.INVALID:
            s.pop(line, None)
            return
        if line not in s:
            raise KeyError(f"{self.name}: line {line:#x} not present")
        s[line] = state

    def fill(self, line: int, state: State) -> Optional[Tuple[int, State]]:
        """Insert ``line``; returns an evicted ``(line, state)`` or ``None``.

        The victim is the LRU line of the set.  The caller handles any
        writeback the victim's state requires.  Filling ``INVALID`` is an
        error: an invalid line is an absent one (use :meth:`invalidate`).
        """
        if state is State.INVALID:
            raise ValueError(
                f"{self.name}: cannot fill line {line:#x} as INVALID")
        index = self.set_index(line)
        s = self._sets[index]
        victim = None
        if s is EMPTY_SET:
            s = self._sets[index] = OrderedDict()
        elif line in s:
            s.move_to_end(line)
        elif len(s) >= self.assoc:
            victim = s.popitem(last=False)
            self.stats.evictions += 1
        s[line] = state
        return victim

    def invalidate(self, line: int) -> State:
        """Snoop-invalidate ``line``; returns its previous state."""
        state = self._set_of(line).pop(line, None)
        if state is None:
            return State.INVALID
        self.stats.invalidations_received += 1
        return state

    def contents(self) -> Dict[int, State]:
        """All valid lines (for invariant checks in tests)."""
        out: Dict[int, State] = {}
        for s in self._sets:
            out.update(s)
        return out

    @property
    def lines_valid(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:
        return (
            f"Cache({self.name!r}, {self.size >> 10}kB, {self.assoc}-way, "
            f"{self.lines_valid} lines valid)"
        )
