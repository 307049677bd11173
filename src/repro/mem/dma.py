"""DMA-based accelerator memory path (Section III-D).

"The proposed framework can also be used with non-coherent caches or
DMA-based accelerators if fine-grained data sharing is not needed ...  A
PE can initiate cache flushing or DMA transfers to read input / write
output data for a task."

:class:`DmaMemory` models that adaptation: no caches and no coherence —
each worker memory operation becomes an explicit DMA burst through the
tile's DMA engine to DRAM.  A burst pays a fixed descriptor/setup cost
plus transfer time at DRAM bandwidth (shared across engines); reads stall
the PE, writes are posted to the engine.  The model makes the paper's
trade-off quantitative: streaming workloads lose little without caches,
but fine-grained or irregular accesses (one word per burst, every gather
a fresh descriptor) collapse — which is why the paper argues for the
cache-coherent integration for general-purpose workloads.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mem.coherence import AccessResult
from repro.mem.dram import DRAM
from repro.mem.memory import LINE_SIZE


class DmaMemory:
    """Per-tile DMA engines over a shared DRAM channel."""

    def __init__(
        self,
        num_engines: int,
        setup_ns: float = 80.0,
        dram_access_ns: float = 50.0,
        dram_bandwidth_gbps: float = 12.8,
        line_size: int = LINE_SIZE,
    ) -> None:
        if num_engines < 1:
            raise ValueError(f"need at least one DMA engine: {num_engines}")
        self.num_engines = num_engines
        self.setup_ns = setup_ns
        self.line_size = line_size
        self.dram = DRAM(dram_access_ns, dram_bandwidth_gbps, line_size)
        self._engine_free = [0.0] * num_engines
        self.bursts = 0
        self.read_bursts = 0
        self.write_bursts = 0
        self.bytes_moved = 0

    def access(self, requester: int, addr: int, nbytes: int, is_write: bool,
               now_ns: float) -> AccessResult:
        """One worker memory op = one DMA burst on ``requester``'s engine."""
        if nbytes <= 0:
            raise ValueError(f"access must cover at least one byte: {nbytes}")
        engine_start = max(now_ns, self._engine_free[requester])
        queue_ns = engine_start - now_ns
        transfer_ns = self.dram.access(engine_start + self.setup_ns, nbytes)
        busy_until = engine_start + self.setup_ns + transfer_ns
        self._engine_free[requester] = busy_until
        self.bursts += 1
        self.bytes_moved += nbytes
        lines = max(1, (nbytes + self.line_size - 1) // self.line_size)
        if is_write:
            # Posted: the engine drains the burst while the PE continues.
            self.write_bursts += 1
            return AccessResult(0.0, lines, 0)
        self.read_bursts += 1
        return AccessResult(busy_until - now_ns, 0, lines)

    def summary(self) -> Dict[str, float]:
        return {
            "dma_bursts": self.bursts,
            "dma_read_bursts": self.read_bursts,
            "dma_write_bursts": self.write_bursts,
            "dma_bytes": self.bytes_moved,
            "dram_requests": self.dram.stats.requests,
            "dram_bytes": self.dram.stats.bytes_transferred,
        }
