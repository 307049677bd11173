"""Progress watchdog: early deadlock detection with structured diagnostics.

The termination protocol keeps an outstanding-work counter; a protocol bug
or an unrecovered fault leaves it positive forever, which historically was
only discovered after the full ``max_cycles`` budget (200M cycles by
default) expired with a one-line error.  With
``AcceleratorConfig.watchdog_interval`` set, the accelerator instead runs
the engine in interval-sized chunks and snapshots a *progress signature*
between chunks; two consecutive identical signatures with no PE mid-task
(or only failed PEs mid-task) means the machine is stalled, and
:func:`diagnose` converts the machine state into a
:class:`~repro.core.exceptions.DeadlockError` whose message and
``diagnostics`` attribute name the stalled PEs, queue depths, P-Store
occupancies, in-flight messages and the parked set.

The watchdog never schedules engine events, so enabling it cannot perturb
simulated cycles: chunked ``Engine.run(until=...)`` calls advance the same
event heap to the same timestamps as one big call (asserted by
``tests/resil/test_null_invariant.py``).  Detection latency is at most two
intervals: one to take the first snapshot after the stall, one to observe
it unchanged.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.exceptions import DeadlockError


def progress_signature(accel) -> Tuple:
    """Cheap snapshot that changes whenever the machine makes progress.

    Covers task completions (per-PE), argument deliveries (per-tile
    P-Store), host results, allocations and the outstanding-work counter
    — any forward step the protocol can take moves at least one term.
    """
    return (
        accel.outstanding,
        tuple(pe.stats.tasks_executed for pe in accel.pes),
        accel.interface.results_received,
        sum(ps.stats.allocs + ps.stats.deliveries
            for ps in getattr(accel, "pstores", ())),
        getattr(accel, "rounds_executed", 0),
    )


def live_execution(accel) -> bool:
    """True while any healthy PE is mid-task.

    A long serial task advances no signature term until it completes, so
    stagnation is only declared once every PE is between tasks (idle,
    parked, stalled) or permanently failed — a failed PE's frozen
    ``current_task`` is a symptom, not progress.
    """
    return any(
        pe.current_task is not None and not pe.failed for pe in accel.pes
    )


def _pe_state(pe, now: int) -> str:
    if pe.failed:
        return f"FAILED ({pe.stall_reason or 'permanent fault'})"
    if pe.stall_reason:
        return f"STALLED ({pe.stall_reason})"
    if pe.current_task is not None:
        return (f"executing {pe.current_task.task_type!r} "
                f"since cycle {pe.exec_started_at}")
    registry = pe.accel.park_registry
    if registry is not None and registry.is_parked(pe):
        return "parked"
    return "idle"


def snapshot(accel) -> Dict:
    """Structured machine-state dump for deadlock diagnostics."""
    now = accel.engine.now
    pes = {}
    for pe in accel.pes:
        pes[pe.pe_id] = {
            "state": _pe_state(pe, now),
            "queue_depth": len(pe.deque),
            "queue_capacity": pe.deque.capacity,
            "queue_high_water": pe.deque.high_water,
            "tasks_executed": pe.stats.tasks_executed,
        }
    pstores = {}
    for ps in getattr(accel, "pstores", ()):
        pstores[ps.tile_id] = {
            "occupancy": ps.occupancy,
            "capacity": ps.entries,
            "high_water": ps.stats.high_water,
            "allocs": ps.stats.allocs,
        }
    # Everything outstanding that is neither queued, pending, nor being
    # executed is a message in flight (or lost): argument sends, readied
    # tasks riding the task-return path, root injections in progress.
    accounted = (
        sum(len(pe.deque) for pe in accel.pes)
        + sum(ps.occupancy for ps in getattr(accel, "pstores", ()))
        + sum(1 for pe in accel.pes if pe.current_task is not None)
        + accel.interface.pending
        + accel.interface.admission_pending
    )
    parked = []
    if accel.park_registry is not None:
        parked = sorted(
            pe.pe_id for pe in accel.pes if accel.park_registry.is_parked(pe)
        )
    diag = {
        "cycle": now,
        "outstanding": accel.outstanding,
        "in_flight": max(0, accel.outstanding - accounted),
        "pes": pes,
        "pstores": pstores,
        "if_pending": accel.interface.pending,
        "if_admission_pending": accel.interface.admission_pending,
        "if_results": accel.interface.results_received,
        "pending_events": accel.engine.pending_events,
        "parked": parked,
    }
    if accel.faults is not None:
        diag["faults_injected"] = dict(accel.faults.injected)
        diag["faults_recovered"] = dict(accel.faults.recovered)
    return diag


def diagnose(accel, reason: str) -> DeadlockError:
    """Build a :class:`DeadlockError` carrying a full machine snapshot.

    The message always contains the word ``outstanding`` plus at least
    one non-idle PE and the queue/P-Store occupancies, so a log line
    alone localises the stall; ``diagnostics`` holds the same data
    structured.
    """
    diag = snapshot(accel)
    lines = [
        f"{reason}: {diag['outstanding']} work item(s) outstanding, "
        f"~{diag['in_flight']} in flight, "
        f"{diag['pending_events']} event(s) pending at cycle {diag['cycle']}",
    ]
    interesting = [
        (pe_id, st) for pe_id, st in diag["pes"].items()
        if st["state"] != "idle" or st["queue_depth"]
    ] or list(diag["pes"].items())
    for pe_id, st in interesting:
        lines.append(
            f"  pe{pe_id}: {st['state']}, queue "
            f"{st['queue_depth']}/{st['queue_capacity']} "
            f"(high water {st['queue_high_water']}), "
            f"{st['tasks_executed']} task(s) executed"
        )
    for tile, st in diag["pstores"].items():
        lines.append(
            f"  pstore tile {tile}: {st['occupancy']}/{st['capacity']} "
            f"entries (high water {st['high_water']}, "
            f"{st['allocs']} allocs)"
        )
    lines.append(
        f"  IF block: {diag['if_pending']} task(s) pending, "
        f"{diag['if_admission_pending']} in admission queues, "
        f"{diag['if_results']} result(s) received"
    )
    if diag["parked"]:
        lines.append(f"  parked PEs: {diag['parked']}")
    if "faults_injected" in diag:
        lines.append(
            f"  faults: injected {diag['faults_injected']}, "
            f"recovered {diag['faults_recovered']}"
        )
    err = DeadlockError("\n".join(lines))
    err.diagnostics = diag
    return err
