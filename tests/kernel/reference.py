"""The reference kernel: a generator-heap engine with closures.

This is the simulator's original event loop, kept as a test oracle for
:class:`repro.kernel.FastEngine`.  Heap entries are
``(time, scheduled_at, parent_scheduled_at, seq, callback, args)``, run
as ``callback(*args)``; process resumptions are closures over
``(proc, value)``.  It implements the same
:class:`~repro.kernel.interface.SimKernel` interface, so a test can
substitute it for :func:`repro.kernel.make_engine` (:func:`use_kernel`)
and compare every observable of a run against the product kernel.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.kernel.interface import (
    Event,
    Park,
    Process,
    SimKernel,
    SimulationError,
    Timeout,
    validated_delay,
)


class ReferenceEngine(SimKernel):
    """Discrete-event kernel driving processes through per-event closures."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: List[Tuple] = []

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., None],
                 *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` ticks from now."""
        self._seq += 1
        heapq.heappush(
            self._heap,
            (self.now + validated_delay(delay), self.now, self._cur_s_at,
             self._seq, fn, args),
        )

    def resume_at(self, proc: Process, time: int, value: Any,
                  s_at: int, p_s_at: int) -> None:
        self._check_resume_at(proc, time, s_at, p_s_at)
        self._seq += 1
        heapq.heappush(
            self._heap,
            (time, s_at, p_s_at, self._seq,
             lambda: self._step(proc, value), ()),
        )

    def process(self, generator: Generator, name: str = "proc") -> Process:
        proc = Process(self, generator, name)
        self._live_processes += 1
        if self.telemetry is not None:
            self.telemetry.proc_start(name)
        self.schedule(0, lambda: self._step(proc, None))
        return proc

    def _schedule_resume(self, proc: Process, delay: int, value: Any) -> None:
        self.schedule(delay, lambda: self._step(proc, value))

    def _step(self, proc: Process, value: Any) -> None:
        try:
            request = proc.generator.send(value)
        except StopIteration as stop:
            self._live_processes -= 1
            if self.telemetry is not None:
                self.telemetry.proc_end(proc.name)
            proc._finish(getattr(stop, "value", None))
            return
        self._dispatch(proc, request)

    def _dispatch(self, proc: Process, request: Any) -> None:
        if isinstance(request, Timeout):
            self._schedule_resume(proc, request.delay, None)
        elif isinstance(request, Event):
            request._add_waiter(proc)
        elif isinstance(request, Process):
            request._add_joiner(proc)
        elif isinstance(request, Park):
            pass  # suspended; the park issuer resumes via resume_at
        else:
            raise SimulationError(
                f"process {proc.name!r} yielded unsupported request {request!r}"
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        ran = False
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            time = entry[0]
            if until is not None and time > until:
                break
            pop(heap)
            if time < self.now:
                raise SimulationError("time went backwards")
            self.now = time
            self._cur_s_at = entry[1]
            self._cur_p_s_at = entry[2]
            entry[4](*entry[5])
            ran = True
        if ran:
            self.last_event_time = self.now
        # A bounded run always ends at its horizon, whether it stopped
        # early or drained the heap.
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def finished(self) -> bool:
        return not self._heap


#: Kernel names the golden suites parametrize over: this oracle and the
#: product kernel.
KERNELS = ("reference", "fast")


def use_kernel(monkeypatch, name: str) -> None:
    """Build every accelerator of the calling test on kernel ``name``."""
    if name == "reference":
        monkeypatch.setattr("repro.arch.accelerator.make_engine",
                            ReferenceEngine)
