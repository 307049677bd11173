"""Span tracing from outside the program.

The benchmark wraps public calls into each layer (kernel, workers,
memory, scheduler, workload, exec) with :meth:`Tracer.patch`.  Each call
records one span ``[name, start, end, parent]`` in memory; nothing is
written until the run ends.  A layer's self time is its spans' duration
minus the part their child spans cover, so time spent inside nested
calls (a worker allocating a P-Store entry, a cache read parsing a
record) is counted once, in the innermost layer that was traced.

Patches replace class or module attributes, so a bound method or a
function reference taken before :meth:`Tracer.install` bypasses them.
Forked children uninstall them at fork time, because their spans could
never be sent back to the parent.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: One span: ``[name, start, end, parent]``; ``parent`` is the index of
#: the enclosing span in :attr:`Tracer.spans`, or -1 at the top level.
Span = List


class Tracer:
    """In-memory span recorder with install/uninstall of method patches."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._targets: List[Tuple[object, str, str]] = []
        self._originals: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self.uninstall)

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> Span:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = self.clock()
        return record

    def _close(self, record: Span) -> None:
        record[2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span around a block; the yielded record may be
        renamed (``record[0] = ...``) before the block ends."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, self.clock

        # _open/_close inlined: this runs on every traced call.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    # -- patching --------------------------------------------------------
    def patch(self, owner: object, attr: str, name: str) -> None:
        """Trace ``owner.attr`` (a class method or module function) as
        ``name`` while the tracer is installed."""
        self._targets.append((owner, attr, name))

    def install(self) -> None:
        if self._originals:
            return
        for owner, attr, name in self._targets:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            if isinstance(original, (classmethod, staticmethod)):
                traced = type(original)(self.wrap(original.__func__, name))
            else:
                traced = self.wrap(original, name)
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- analysis --------------------------------------------------------
    def self_times(self, first: int = 0) -> Dict[str, Tuple[float, int]]:
        """``{name: (self seconds, calls)}`` over the closed spans from
        index ``first`` on, which must not nest inside earlier ones."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans[first:]:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, Tuple[float, int]] = {}
        for index in range(first, len(spans)):
            name, start, end, _parent = spans[index]
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + (end - start) - covered[index],
                            calls + 1)
        return totals

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
