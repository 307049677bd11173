"""Memory-system models used by the execution engines.

The interchangeable models below and ``repro.mem.dma.DmaMemory`` expose
``access(requester, addr, nbytes, is_write, now_ns) -> float``, the
access's stall in ns; each counts its own line hits and misses:

* :class:`MemoryHierarchy` — the Table III system: per-tile (or per-core)
  L1s kept MOESI-coherent, inclusive shared L2, DRAM bandwidth model.
* :class:`StreamBufferMemory` — the Zedboard prototype's memory path
  (Section V-B): no L1 caches on the fabric; every PE access goes through a
  small stream buffer and then a single shared ACP port with limited
  bandwidth into the L2.
* :class:`PerfectMemory` — zero-stall memory for isolating scheduling
  behaviour in tests and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.mem.cache import Cache, CacheStats, State
from repro.mem.coherence import CoherenceDomain, MemLatencies
from repro.mem.dram import DRAM
from repro.mem.memory import LINE_SIZE, lines_touched


@dataclass(frozen=True)
class MemConfig:
    """Configuration of a :class:`MemoryHierarchy` (defaults: Table III)."""

    num_l1: int = 1
    l1_size: int = 32 * 1024
    l1_assoc: int = 2
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 8
    line_size: int = LINE_SIZE
    latencies: MemLatencies = field(default_factory=MemLatencies)
    prefetch: bool = True
    dram_access_ns: float = 50.0
    dram_bandwidth_gbps: float = 12.8
    l2_bandwidth_gbps: float = 64.0
    #: Optional per-L1 port serialisation (ns per line access).  Each tile
    #: L1 is shared by the tile's PEs; a nonzero interval makes their
    #: accesses contend for the single port.  Default 0 (dual-ported /
    #: overprovisioned, as the calibrated runs assume).
    l1_port_interval_ns: float = 0.0

    def with_l1_size(self, l1_size: int) -> "MemConfig":
        """Copy with a different L1 size (the Fig 9 sweep)."""
        return replace(self, l1_size=l1_size)


class MemoryHierarchy(CoherenceDomain):
    """The coherence domain of a :class:`MemConfig`: it builds the L1s,
    the L2 and the DRAM channel, and adds warm-up and reporting."""

    def __init__(self, config: MemConfig) -> None:
        self.config = config
        super().__init__(
            [Cache(f"l1.{i}", config.l1_size, config.l1_assoc,
                   config.line_size)
             for i in range(config.num_l1)],
            Cache("l2", config.l2_size, config.l2_assoc, config.line_size),
            DRAM(config.dram_access_ns, config.dram_bandwidth_gbps,
                 config.line_size),
            config.latencies, prefetch=config.prefetch,
            line_size=config.line_size,
            l2_bandwidth_gbps=config.l2_bandwidth_gbps,
            l1_port_interval_ns=config.l1_port_interval_ns,
        )

    #: The domain's own access, bound in this class's dict: a PE's bound
    #: ``memory.access`` runs it with no frame between, and perfbench's
    #: ``mem.access`` span, which patches a class's own ``access``, still
    #: sees every call.
    access = CoherenceDomain.access

    def warm_l2(self, memory) -> int:
        """Pre-fill the L2 with a workload's regions (CPU-initialised data
        lives in the shared LLC before the accelerator starts).  Returns
        the number of lines installed; regions beyond capacity evict the
        earliest prefills, as LRU would."""
        installed = 0
        for region in memory.regions.values():
            for line in lines_touched(region.base, region.nbytes,
                                      self.config.line_size):
                self._fill_l2(line, State.EXCLUSIVE, 0.0)
                installed += 1
        return installed

    # -- instrumentation -------------------------------------------------
    def l1_stats(self, index: int) -> CacheStats:
        return self.l1s[index].stats

    def total_misses(self) -> int:
        return sum(l1.stats.misses for l1 in self.l1s)

    def summary(self) -> Dict[str, float]:
        """Flat statistics for reports."""
        hits = sum(l1.stats.read_hits + l1.stats.write_hits for l1 in self.l1s)
        misses = self.total_misses()
        return {
            "l1_hits": hits,
            "l1_misses": misses,
            "l1_miss_rate": misses / (hits + misses) if hits + misses else 0.0,
            "l2_hits": self.stats.l2_hits,
            "l2_misses": self.stats.l2_misses,
            "c2c_transfers": self.stats.c2c_transfers,
            "dram_requests": self.dram.stats.requests,
            "dram_bytes": self.dram.stats.bytes_transferred,
        }


class PerfectMemory:
    """Zero-latency memory: every access is a hit."""

    def __init__(self, num_l1: int = 1, line_size: int = LINE_SIZE) -> None:
        self.num_l1 = num_l1
        self.line_size = line_size
        self.accesses = 0

    def access(self, requester: int, addr: int, nbytes: int, is_write: bool,
               now_ns: float) -> float:
        self.accesses += len(lines_touched(addr, nbytes, self.line_size))
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {"l1_hits": self.accesses, "l1_misses": 0, "l1_miss_rate": 0.0}


class StreamBufferMemory:
    """Zedboard fabric memory path: stream buffers over a shared ACP port.

    Each requester keeps a small FIFO of recently fetched lines (the stream
    buffer); a buffer miss crosses the single ACP port, which adds a fixed
    latency and serialises transfers at the port's bandwidth.  A miss also
    *prefetches ahead* — streaming sequentially is the whole point of a
    stream buffer — so sequential blocks stall once per ``prefetch_depth``
    lines while still consuming port bandwidth for every line.  Writes are
    posted: they consume port bandwidth but do not stall the PE.
    """

    def __init__(
        self,
        num_requesters: int,
        buffer_lines: int = 32,
        acp_latency_ns: float = 100.0,
        acp_bandwidth_gbps: float = 1.2,
        prefetch_depth: int = 4,
        line_size: int = LINE_SIZE,
    ) -> None:
        self.num_requesters = num_requesters
        self.buffer_lines = buffer_lines
        self.acp_latency_ns = acp_latency_ns
        self.bytes_per_ns = acp_bandwidth_gbps
        self.prefetch_depth = prefetch_depth
        self.line_size = line_size
        self._buffers: List[List[int]] = [[] for _ in range(num_requesters)]
        self._port_free = 0.0
        self.reads = 0
        self.writes = 0
        self.buffer_hits = 0
        self.port_bytes = 0

    def _insert(self, requester: int, line: int) -> None:
        buf = self._buffers[requester]
        buf.append(line)
        if len(buf) > self.buffer_lines:
            buf.pop(0)

    def access(self, requester: int, addr: int, nbytes: int, is_write: bool,
               now_ns: float) -> float:
        stall_ns = 0.0
        buf = self._buffers[requester]
        # Narrow (sub-line) accesses transfer 64-bit ACP words, not whole
        # lines; streaming (>= one line) accesses move full lines and arm
        # the prefetcher.
        streaming = nbytes >= self.line_size
        xfer = self.line_size if streaming else max(8, nbytes)
        for line in lines_touched(addr, nbytes, self.line_size):
            if is_write:
                self.writes += 1
                self._consume_port(now_ns, xfer)
                continue
            self.reads += 1
            if line in buf:
                self.buffer_hits += 1
                continue
            queue = self._consume_port(now_ns, xfer)
            stall = queue + self.acp_latency_ns
            stall_ns += stall
            now_ns += stall
            self._insert(requester, line)
            if streaming:
                # Stream ahead: subsequent lines ride the open burst (they
                # occupy the port but do not stall the requester).
                for ahead in range(1, self.prefetch_depth + 1):
                    next_line = line + ahead * self.line_size
                    if next_line not in buf:
                        self._consume_port(now_ns, self.line_size)
                        self._insert(requester, next_line)
        return stall_ns

    def _consume_port(self, now_ns: float, nbytes: int = None) -> float:
        """Occupy the ACP port for one transfer; returns queueing delay."""
        nbytes = self.line_size if nbytes is None else nbytes
        service = nbytes / self.bytes_per_ns
        start = max(now_ns, self._port_free)
        self._port_free = start + service
        self.port_bytes += nbytes
        return start - now_ns

    def summary(self) -> Dict[str, float]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "buffer_hits": self.buffer_hits,
            "port_bytes": self.port_bytes,
        }
