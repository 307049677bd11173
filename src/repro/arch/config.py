"""Accelerator configuration (the architecture template parameters).

The PyMTL template of Section IV-A is parameterised by the architecture
variant (FlexArch or LiteArch), the number of tiles and PEs per tile, the
task queue and P-Store depths, and the cache size.  This dataclass carries
those parameters plus the micro-architectural latencies of the timed model,
all in accelerator cycles (200 MHz per Table III unless overridden).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.core.exceptions import ConfigError
from repro.mem.coherence import MemLatencies
from repro.mem.hierarchy import MemConfig
from repro.sched import POLICY_NAMES
from repro.sim.timing import ACCEL_CLOCK, ClockDomain

#: Memory-system styles selectable in the template.
MEMORY_COHERENT = "coherent"   # per-tile L1s + shared L2 (Table III)
MEMORY_STREAM = "stream"       # Zedboard stream buffers over the ACP port
MEMORY_DMA = "dma"             # explicit DMA bursts, no caches (III-D)
MEMORY_PERFECT = "perfect"     # zero-latency memory (tests/ablations)


@dataclass(frozen=True)
class AcceleratorConfig:
    """Template parameters for one generated accelerator."""

    arch: str = "flex"                  # "flex" or "lite"
    num_tiles: int = 1
    pes_per_tile: int = 4
    task_queue_entries: int = 256       # per-PE TMU queue depth
    pstore_entries: int = 512           # per-tile P-Store entries
    l1_size: int = 32 * 1024
    clock: ClockDomain = ACCEL_CLOCK

    # Micro-architectural latencies, in accelerator cycles.
    queue_op_cycles: int = 1            # TMU enqueue/dequeue
    dispatch_cycles: int = 1            # task hand-off TMU -> worker
    pstore_local_cycles: int = 2        # intra-tile P-Store access
    net_hop_cycles: int = 4             # crossbar traversal (one way)
    steal_backoff_cycles: int = 4       # retry delay after a failed steal
    idle_poll_cycles: int = 2           # poll delay when nothing to steal

    # Simulator-side optimisation (no timing effect): park idle PEs on a
    # wakeup registry instead of busy-polling the event heap.  Results are
    # bit-exact either way (see repro/arch/wakeup.py); the knob exists so
    # tests can compare the two executions and to debug the scheduler.
    park_idle_pes: bool = True

    # Resilience knobs (docs/RESILIENCE.md).  Defaults reproduce the
    # fail-fast behaviour: exhaustion raises, lost messages hang until the
    # cycle budget (or the watchdog, when enabled) declares deadlock.
    steal_retry: bool = False           # timeout + bounded retry on a lost
    #                                     steal request (else: thief stalls)
    steal_timeout_cycles: int = 64      # thief-side response timeout
    steal_retry_limit: int = 8          # retries before treating as a NACK
    arg_retransmit: bool = False        # link-level retransmit of dropped
    #                                     argument messages + seq-number
    #                                     dedup of duplicated ones
    arg_retransmit_cycles: int = 32     # sender timeout before retransmit
    pe_fault_retry: bool = False        # idempotent task re-execution after
    #                                     a transient PE fault (else: the PE
    #                                     fails permanently, task lost)
    pe_fault_recovery_cycles: int = 32  # detect + restart latency
    pstore_backpressure: bool = False   # full P-Store NACKs the allocation
    #                                     and the creator retries (else:
    #                                     PStoreFullError)
    pstore_retry_backoff_cycles: int = 16   # base creator-side backoff
    pstore_retry_limit: int = 16        # NACK retries before giving up
    pstore_ecc: bool = False            # correct poisoned entries (else:
    #                                     parity error => DataCorruptionError)
    spawn_overflow_inline: bool = False  # full task queue: execute the
    #                                     spawn inline at the spawning PE
    #                                     (else: TaskQueueOverflowError)
    watchdog_interval: Optional[int] = None  # progress check period in
    #                                     cycles; None disables the watchdog

    # Scheduling-policy ablation knobs (defaults = the paper's design).
    steal_policy: str = "random"  # victim-selection / steal-plan policy
    #                               ("random" | "hierarchical" |
    #                                "occupancy" | "steal_half"); see
    #                               repro.sched and docs/SCHEDULING.md
    local_order: str = "lifo"     # owner queue discipline: "lifo" | "fifo"
    steal_end: str = "head"       # thieves take the "head" or the "tail"
    greedy: bool = True           # readied successor goes to the last-arg
    #                               producer (False: back to its creator)
    central_pstore: bool = False  # single shared P-Store on tile 0

    # Heterogeneous-worker extension (Section III-A): task type -> shared
    # unit kind.  Types listed here execute on one tile-shared datapath
    # unit per kind (PEs of a tile contend); unlisted types run on
    # dedicated per-PE logic.  ``None`` = homogeneous workers.
    shared_worker_kinds: Optional[Tuple[Tuple[str, int], ...]] = None

    # Memory system.
    memory: str = MEMORY_COHERENT
    mem_latencies: MemLatencies = field(default_factory=MemLatencies)
    dram_bandwidth_gbps: float = 12.8
    dram_access_ns: float = 50.0
    prefetch: bool = True
    l1_port_interval_ns: float = 0.0   # per-line L1 port serialisation
    # Stream-buffer (Zedboard) parameters, used when memory == "stream".
    acp_latency_ns: float = 100.0
    acp_bandwidth_gbps: float = 1.2
    stream_buffer_lines: int = 32
    stream_prefetch_depth: int = 4
    # DMA-mode parameters, used when memory == "dma".
    dma_setup_ns: float = 80.0

    # CPU-accelerator interface: memory-mapped task injection and
    # result readback (Section III-E).  Whole-program comparisons in the
    # paper include these transfers; both are in accelerator cycles.
    offload_inject_cycles: int = 20
    offload_read_cycles: int = 20

    # LiteArch host-side overheads, in *CPU* (1 GHz) cycles.
    lite_round_overhead_cycles: int = 200
    lite_per_task_host_cycles: int = 10
    cpu_clock: ClockDomain = field(
        default_factory=lambda: ClockDomain(1000.0, "cpu")
    )

    def __post_init__(self) -> None:
        if self.arch not in ("flex", "lite"):
            raise ConfigError(f"unknown architecture variant {self.arch!r}")
        if self.num_tiles < 1 or self.pes_per_tile < 1:
            raise ConfigError(
                f"need at least one tile and PE: "
                f"{self.num_tiles}x{self.pes_per_tile}"
            )
        if self.memory not in (MEMORY_COHERENT, MEMORY_STREAM, MEMORY_DMA,
                               MEMORY_PERFECT):
            raise ConfigError(f"unknown memory style {self.memory!r}")
        if self.task_queue_entries < 2:
            raise ConfigError("task queue needs at least two entries")
        if self.pstore_entries < 1:
            raise ConfigError("P-Store needs at least one entry")
        if self.watchdog_interval is not None and self.watchdog_interval < 1:
            raise ConfigError(
                f"watchdog interval must be positive: {self.watchdog_interval}"
            )
        if self.steal_retry_limit < 1 or self.pstore_retry_limit < 1:
            raise ConfigError("retry limits must be at least one attempt")
        if self.steal_policy not in POLICY_NAMES:
            raise ConfigError(
                f"unknown steal policy {self.steal_policy!r} "
                f"(choose from {', '.join(POLICY_NAMES)})"
            )
        if self.local_order not in ("lifo", "fifo"):
            raise ConfigError(f"unknown local order {self.local_order!r}")
        if self.steal_end not in ("head", "tail"):
            raise ConfigError(f"unknown steal end {self.steal_end!r}")

    @property
    def num_pes(self) -> int:
        return self.num_tiles * self.pes_per_tile

    @property
    def is_flex(self) -> bool:
        return self.arch == "flex"

    def tile_of(self, pe_id: int) -> int:
        """Tile index of global PE id ``pe_id``."""
        if not (0 <= pe_id < self.num_pes):
            raise ConfigError(f"PE id {pe_id} out of range")
        return pe_id // self.pes_per_tile

    def mem_config(self) -> MemConfig:
        """Memory hierarchy configuration: one L1 per tile."""
        return MemConfig(
            num_l1=self.num_tiles,
            l1_size=self.l1_size,
            latencies=self.mem_latencies,
            prefetch=self.prefetch,
            dram_access_ns=self.dram_access_ns,
            dram_bandwidth_gbps=self.dram_bandwidth_gbps,
            l1_port_interval_ns=self.l1_port_interval_ns,
        )

    def scaled(self, num_tiles: int, pes_per_tile: Optional[int] = None
               ) -> "AcceleratorConfig":
        """Copy with a different tile/PE count (scalability sweeps)."""
        return replace(
            self,
            num_tiles=num_tiles,
            pes_per_tile=(pes_per_tile if pes_per_tile is not None
                          else self.pes_per_tile),
        )


def flex_config(num_pes: int, pes_per_tile: int = 4, **overrides
                ) -> AcceleratorConfig:
    """FlexArch with ``num_pes`` PEs grouped into tiles of ``pes_per_tile``.

    Follows the paper's evaluation setup: 4 PEs per tile; configurations
    smaller than one full tile use a single tile with fewer PEs.
    """
    if num_pes <= pes_per_tile:
        return AcceleratorConfig(arch="flex", num_tiles=1,
                                 pes_per_tile=num_pes, **overrides)
    if num_pes % pes_per_tile:
        raise ConfigError(
            f"{num_pes} PEs not divisible into tiles of {pes_per_tile}"
        )
    return AcceleratorConfig(arch="flex", num_tiles=num_pes // pes_per_tile,
                             pes_per_tile=pes_per_tile, **overrides)


def lite_config(num_pes: int, pes_per_tile: int = 4, **overrides
                ) -> AcceleratorConfig:
    """LiteArch counterpart of :func:`flex_config`.

    LiteArch task queues default much deeper than FlexArch's: the host
    streams whole statically-split rounds into the PE queues, so a round
    with more tasks than PEs piles onto each queue (in hardware the IF
    block would throttle against backpressure; the deep queue models the
    host-side buffer without changing timing).
    """
    overrides.setdefault("task_queue_entries", 1 << 16)
    cfg = flex_config(num_pes, pes_per_tile, **overrides)
    return replace(cfg, arch="lite")
