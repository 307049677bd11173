"""Accelerator architecture: FlexArch and LiteArch timed engines.

Implements the Section III architecture as an event-driven cycle model:
tiles of PEs (worker + TMU) with bounded work-stealing deques, per-tile
P-Stores, crossbar argument and work-stealing networks, per-tile L1 caches
under MOESI coherence, and the CPU interface block.
"""

from repro.arch.accelerator import (
    DEFAULT_MAX_CYCLES,
    BaseAccelerator,
    FlexAccelerator,
)
from repro.arch.config import (
    MEMORY_COHERENT,
    MEMORY_DMA,
    MEMORY_PERFECT,
    MEMORY_STREAM,
    AcceleratorConfig,
    flex_config,
    lite_config,
)
from repro.arch.hetero import (
    SharedWorkerUnits,
    TypeFilteredWorker,
    WorkerGroup,
    kinds_from,
    partition_worker,
    shared_tile_resources,
)
from repro.arch.interface import InterfaceBlock
from repro.arch.lite import LiteAccelerator, LiteProgram
from repro.arch.network import CrossbarNetwork, NetworkStats
from repro.arch.pe import ProcessingElement
from repro.arch.pstore import HardwarePStore, PStoreStats
from repro.arch.result import PEStats, RunResult

__all__ = [
    "DEFAULT_MAX_CYCLES",
    "BaseAccelerator",
    "FlexAccelerator",
    "MEMORY_COHERENT",
    "MEMORY_DMA",
    "MEMORY_PERFECT",
    "MEMORY_STREAM",
    "AcceleratorConfig",
    "flex_config",
    "lite_config",
    "SharedWorkerUnits",
    "TypeFilteredWorker",
    "WorkerGroup",
    "kinds_from",
    "partition_worker",
    "shared_tile_resources",
    "InterfaceBlock",
    "LiteAccelerator",
    "LiteProgram",
    "CrossbarNetwork",
    "NetworkStats",
    "ProcessingElement",
    "HardwarePStore",
    "PStoreStats",
    "PEStats",
    "RunResult",
]
