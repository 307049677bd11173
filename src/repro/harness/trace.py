"""Execution tracing: per-PE busy intervals and ASCII timelines.

An :class:`ExecutionTrace` holds one interval per executed task (PE,
start/end cycle, task type).  :func:`attach_trace` derives them from the
accelerator's telemetry :class:`~repro.obs.EventSink`, whose task
records already carry each execute window.  The trace renders as a
terminal timeline — the quickest way to *see* load imbalance,
steal-driven rebalancing, or a serial bottleneck:

    pe0 |##########____########|
    pe1 |____##################|
    ...

Use :func:`attach_trace`, run the engine, then ``print(trace.render())``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class TaskInterval:
    """One executed task's occupancy of a PE."""

    pe_id: int
    start: int
    end: int
    task_type: str

    @property
    def duration(self) -> int:
        return self.end - self.start


class ExecutionTrace:
    """Per-PE activity: fixed ``intervals``, or a live telemetry sink's
    finished task records."""

    def __init__(self, intervals: Iterable[TaskInterval] = (),
                 num_pes: Optional[int] = None, sink=None) -> None:
        self._intervals = list(intervals)
        self._num_pes = num_pes
        self._sink = sink

    @property
    def intervals(self) -> List[TaskInterval]:
        if self._sink is None:
            return self._intervals
        return [TaskInterval(rec.pe, rec.exec_start, rec.exec_end,
                             rec.task_type)
                for rec in self._sink.tasks if rec.exec_end >= 0]

    @property
    def num_pes(self) -> int:
        """PE count: the attached machine's if known, else derived from
        the intervals (which would miss PEs that never ran a task)."""
        derived = 1 + max((i.pe_id for i in self.intervals), default=-1)
        if self._num_pes is None:
            return derived
        return max(self._num_pes, derived)

    @property
    def end_cycle(self) -> int:
        return max((i.end for i in self.intervals), default=0)

    def busy_cycles(self, pe_id: int) -> int:
        return sum(i.duration for i in self.intervals if i.pe_id == pe_id)

    def by_type(self) -> Dict[str, int]:
        """Total busy cycles per task type (where the time went)."""
        totals: Dict[str, int] = {}
        for interval in self.intervals:
            totals[interval.task_type] = (
                totals.get(interval.task_type, 0) + interval.duration
            )
        return totals

    def render(self, width: int = 72) -> str:
        """ASCII timeline: '#' busy, '_' idle, one row per PE."""
        intervals = self.intervals
        end = max((i.end for i in intervals), default=0)
        if end == 0:
            return "(empty trace)"
        scale = end / width
        rows = []
        for pe in range(self.num_pes):
            cells = [0.0] * width
            busy = 0
            for interval in intervals:
                if interval.pe_id != pe:
                    continue
                busy += interval.duration
                first = int(interval.start / scale)
                last = min(width - 1, int(max(interval.start,
                                              interval.end - 1) / scale))
                for cell in range(first, last + 1):
                    cells[cell] += 1.0
            line = "".join("#" if c > 0 else "_" for c in cells)
            rows.append(f"pe{pe:<3d}|{line}| {100.0 * busy / end:3.0f}%")
        header = f"cycles 0..{end} ({scale:.1f} cycles/char)"
        return "\n".join([header] + rows)

    def utilization(self) -> float:
        """Mean busy fraction across PEs over the traced window."""
        end = self.end_cycle
        pes = self.num_pes
        if not end or not pes:
            return 0.0
        busy = sum(i.duration for i in self.intervals)
        return busy / (end * pes)


def attach_trace(accelerator) -> ExecutionTrace:
    """A trace of ``accelerator``'s tasks; call it before ``run``.

    Attaches telemetry unless a sink is already attached, and reads the
    intervals from that sink's task records.  The machine's real PE
    count is captured so never-busy PEs still get an (all-idle)
    timeline row instead of silently vanishing.
    """
    from repro.obs.events import attach_telemetry

    sink = accelerator.telemetry
    if sink is None:
        sink = attach_telemetry(accelerator)
    return ExecutionTrace(num_pes=len(accelerator.pes), sink=sink)
