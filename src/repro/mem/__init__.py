"""Memory-system substrate: simulated memory, MOESI caches, L2, DRAM.

The accelerator is integrated into the general-purpose memory hierarchy via
the shared last-level cache (Section III-D): per-tile L1s built from FPGA
block RAM, kept coherent with the CPU cores' L1s and the inclusive L2 by a
MOESI snooping protocol, over a DRAM channel with bounded bandwidth.
"""

from repro.mem.cache import Cache, CacheStats, State
from repro.mem.coherence import CoherenceDomain, DomainStats, MemLatencies
from repro.mem.dma import DmaMemory
from repro.mem.dram import DRAM, DRAMStats
from repro.mem.hierarchy import (
    MemConfig,
    MemoryHierarchy,
    PerfectMemory,
    StreamBufferMemory,
)
from repro.mem.memory import LINE_SIZE, Region, SimMemory, line_of, lines_touched

__all__ = [
    "Cache",
    "CacheStats",
    "State",
    "CoherenceDomain",
    "DomainStats",
    "MemLatencies",
    "DmaMemory",
    "DRAM",
    "DRAMStats",
    "MemConfig",
    "MemoryHierarchy",
    "PerfectMemory",
    "StreamBufferMemory",
    "LINE_SIZE",
    "Region",
    "SimMemory",
    "line_of",
    "lines_touched",
]
