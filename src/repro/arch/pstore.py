"""Hardware P-Store: per-tile pending task storage (Section III-A).

Wraps the functional :class:`~repro.core.pending.PendingTable` with the
hardware organisation: a control unit with a free list, a join counter
array, metadata and argument arrays, and statistics distinguishing local
accesses (same tile — the common case thanks to task-graph locality) from
remote accesses arriving over the argument network.

Resilience hooks (``repro.resil``, all off by default):

* ``backpressure`` — a full free list raises the retryable
  :class:`~repro.core.exceptions.PStoreNack` instead of
  :class:`~repro.core.exceptions.PStoreFullError`; the creating PE rolls
  back its attempt and retries with backoff (:meth:`rollback` returns
  the entries so a retry sees the identical free list).
* ``ecc`` — a poisoned entry (fault injection) is corrected on delivery;
  without ECC the parity check raises
  :class:`~repro.core.exceptions.DataCorruptionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.exceptions import (
    DataCorruptionError,
    ProtocolError,
    PStoreFullError,
    PStoreNack,
)
from repro.core.pending import PendingTable
from repro.core.task import Continuation, Task


@dataclass
class PStoreStats:
    allocs: int = 0
    local_deliveries: int = 0
    remote_deliveries: int = 0
    tasks_readied: int = 0
    high_water: int = 0
    nacks: int = 0              # allocations refused under backpressure
    rollbacks: int = 0          # entries returned by a NACKed task attempt
    poison_corrected: int = 0   # poisoned entries fixed by ECC

    @property
    def deliveries(self) -> int:
        return self.local_deliveries + self.remote_deliveries

    @property
    def remote_fraction(self) -> float:
        total = self.deliveries
        return self.remote_deliveries / total if total else 0.0


class HardwarePStore:
    """One tile's P-Store."""

    #: Optional :class:`repro.obs.EventSink` (set by ``attach_telemetry``).
    telemetry = None

    #: Optional :class:`repro.resil.FaultPlan` (set by ``attach_faults``).
    faults = None

    def __init__(self, tile_id: int, entries: int, *,
                 backpressure: bool = False, ecc: bool = False) -> None:
        self.tile_id = tile_id
        self.entries = entries
        self.backpressure = backpressure
        self.ecc = ecc
        self.table = PendingTable(owner=tile_id, capacity=entries)
        self.stats = PStoreStats()

    def alloc(
        self,
        task_type: str,
        k: Continuation,
        njoin: int,
        static_args: Tuple = (),
        creator_pe: Optional[int] = None,
    ) -> Continuation:
        """Allocate an entry.

        A full free list raises :class:`PStoreNack` under backpressure,
        else :class:`PStoreFullError` enriched with the tile id,
        occupancy, high water, the task type and the creating PE.
        """
        try:
            cont = self.table.alloc(task_type, k, njoin, static_args,
                                    creator_pe)
        except PStoreFullError as exc:
            occupancy = len(self.table)
            if self.backpressure:
                self.stats.nacks += 1
                raise PStoreNack(self.tile_id, occupancy, self.entries,
                                 task_type) from exc
            err = PStoreFullError(
                f"P-Store tile {self.tile_id} full allocating "
                f"{task_type!r} for pe{creator_pe}: {occupancy}/"
                f"{self.entries} entries live (high water "
                f"{self.stats.high_water}, {self.stats.allocs} allocs) — "
                "raise pstore_entries or enable pstore_backpressure"
            )
            err.tile = self.tile_id
            err.occupancy = occupancy
            err.capacity = self.entries
            err.task_type = task_type
            err.creator_pe = creator_pe
            raise err from exc
        self.stats.allocs += 1
        self.stats.high_water = self.table.high_water
        if self.telemetry is not None:
            self.telemetry.pstore_alloc(self.tile_id, cont.entry,
                                        task_type, creator_pe)
        return cont

    def rollback(self, entry_id: int) -> None:
        """Return an entry a NACKed task attempt allocated (backpressure).

        The table's free list gets the entry back in place, so a retried
        attempt that frees in reverse allocation order draws the same
        entry ids — keeping fault-free replays bit-exact.
        """
        self.table.free(entry_id)
        self.stats.rollbacks += 1
        if self.telemetry is not None:
            self.telemetry.pstore_rollback(self.tile_id, entry_id)

    def deliver(self, cont: Continuation, value, from_local_tile: bool
                ) -> Optional[Task]:
        """Deliver an argument; returns the readied task if ``j`` hit zero.

        A delivery to an entry that is not live (an undetected duplicate
        of the argument that readied it, or a continuation never
        allocated) raises :class:`ProtocolError` before it is counted or
        draws a fault decision.  With a fault plan attached, the write
        may be poisoned: ECC corrects it in place, otherwise the parity
        check raises :class:`DataCorruptionError` naming the tile, entry
        and slot.
        """
        if cont.entry not in self.table.live:
            raise ProtocolError(
                f"P-Store tile {self.tile_id}: delivery to unallocated "
                f"entry {cont!r}"
            )
        if from_local_tile:
            self.stats.local_deliveries += 1
        else:
            self.stats.remote_deliveries += 1
        if self.faults is not None and self.faults.poison_fault():
            from repro.resil.faults import PSTORE_POISON

            if self.telemetry is not None:
                self.telemetry.fault(
                    PSTORE_POISON,
                    data={"tile": self.tile_id, "entry": cont.entry,
                          "slot": cont.slot},
                )
            if not self.ecc:
                raise DataCorruptionError(
                    f"P-Store tile {self.tile_id} entry {cont.entry} slot "
                    f"{cont.slot}: parity error on argument write (enable "
                    "pstore_ecc to correct injected poison)"
                )
            self.stats.poison_corrected += 1
            self.faults.note_recovery(PSTORE_POISON)
            if self.telemetry is not None:
                self.telemetry.recovery(
                    "pstore-ecc",
                    data={"tile": self.tile_id, "entry": cont.entry},
                )
        ready = self.table.deliver(cont, value)
        if ready is not None:
            self.stats.tasks_readied += 1
        return ready

    @property
    def occupancy(self) -> int:
        return len(self.table)

    @property
    def is_empty(self) -> bool:
        return self.table.is_empty

    def __repr__(self) -> str:
        return (
            f"HardwarePStore(tile={self.tile_id}, occ={self.occupancy}/"
            f"{self.entries})"
        )
