"""Tests for the memory-system facades."""

import pytest

from repro.mem.hierarchy import (
    MemConfig,
    MemoryHierarchy,
    PerfectMemory,
    StreamBufferMemory,
)
from repro.mem.memory import SimMemory


def stream_access(mem, requester, addr, nbytes, is_write, now_ns):
    """One stream-buffer access: ``(stall_ns, line_hits, line_misses)``,
    the counts read off its reads/buffer_hits/writes around the call
    (a write or a buffered read hits, a read past the buffer misses)."""
    reads, buffered, writes = mem.reads, mem.buffer_hits, mem.writes
    stall = mem.access(requester, addr, nbytes, is_write, now_ns)
    missed = (mem.reads - reads) - (mem.buffer_hits - buffered)
    return stall, mem.buffer_hits - buffered + mem.writes - writes, missed


def test_hierarchy_builds_per_config():
    hier = MemoryHierarchy(MemConfig(num_l1=3, l1_size=8 * 1024))
    assert len(hier.l1s) == 3
    assert hier.l1s[0].size == 8 * 1024
    assert hier.l2.size == 2 * 1024 * 1024


def test_with_l1_size():
    cfg = MemConfig(l1_size=32 * 1024).with_l1_size(4 * 1024)
    assert cfg.l1_size == 4 * 1024
    assert cfg.l2_size == 2 * 1024 * 1024


def test_access_and_summary():
    hier = MemoryHierarchy(MemConfig(num_l1=2))
    hier.access(0, 0x1000, 4, False, 0.0)
    hier.access(0, 0x1000, 4, False, 0.0)
    summary = hier.summary()
    assert summary["l1_misses"] == 1
    assert summary["l1_hits"] >= 1
    assert summary["dram_requests"] >= 1


def test_warm_l2_preloads_regions():
    mem = SimMemory()
    mem.alloc("data", 4096)
    hier = MemoryHierarchy(MemConfig(num_l1=1))
    installed = hier.warm_l2(mem)
    assert installed == 4096 // 64
    region = mem.regions["data"]
    # A read after warming misses L1 but never touches DRAM.
    hier.access(0, region.base, 4, False, 0.0)
    assert hier.dram.stats.requests == 0
    assert hier.stats.l2_hits >= 1


def test_warm_l2_beyond_capacity_keeps_tail():
    mem = SimMemory()
    mem.alloc("big", 4 * 1024 * 1024)  # 2x the L2
    hier = MemoryHierarchy(MemConfig(num_l1=1))
    hier.warm_l2(mem)
    assert hier.l2.lines_valid <= hier.l2.size // 64


def test_perfect_memory_never_stalls():
    mem = PerfectMemory(num_l1=2)
    assert mem.access(1, 0x2000, 256, True, 0.0) == 0.0
    assert mem.accesses == 4
    assert mem.summary()["l1_miss_rate"] == 0.0


class TestStreamBufferMemory:
    def test_first_read_pays_acp_latency(self):
        mem = StreamBufferMemory(num_requesters=1, acp_latency_ns=120.0,
                                 acp_bandwidth_gbps=0.6, prefetch_depth=0)
        stall, _, misses = stream_access(mem, 0, 0x1000, 4, False, 0.0)
        assert stall >= 120.0
        assert misses == 1

    def test_buffer_hit_is_free(self):
        mem = StreamBufferMemory(num_requesters=1)
        mem.access(0, 0x1000, 4, False, 0.0)
        assert mem.access(0, 0x1000, 8, False, 1000.0) == 0.0
        assert mem.buffer_hits == 1

    def test_buffers_are_per_requester(self):
        mem = StreamBufferMemory(num_requesters=2)
        mem.access(0, 0x1000, 4, False, 0.0)
        _, _, misses = stream_access(mem, 1, 0x1000, 4, False, 0.0)
        assert misses == 1  # requester 1 has its own buffer

    def test_buffer_capacity_fifo(self):
        mem = StreamBufferMemory(num_requesters=1, buffer_lines=2,
                                 prefetch_depth=0)
        for i in range(3):
            mem.access(0, 0x1000 + i * 64, 4, False, 0.0)
        # Line 0 was evicted from the 2-entry buffer.
        _, _, misses = stream_access(mem, 0, 0x1000, 4, False, 10000.0)
        assert misses == 1

    def test_port_serialises_across_requesters(self):
        mem = StreamBufferMemory(num_requesters=2, acp_latency_ns=0.0,
                                 acp_bandwidth_gbps=0.064,
                                 prefetch_depth=0)  # 1000ns/line
        first = mem.access(0, 0x1000, 64, False, 0.0)
        second = mem.access(1, 0x2000, 64, False, 0.0)
        assert second >= first + 999.0

    def test_writes_posted_but_consume_bandwidth(self):
        mem = StreamBufferMemory(num_requesters=1, acp_latency_ns=0.0,
                                 acp_bandwidth_gbps=0.064,
                                 prefetch_depth=0)
        assert mem.access(0, 0x1000, 64, True, 0.0) == 0.0
        # The posted full-line write still occupied the port.
        read = mem.access(0, 0x2000, 64, False, 0.0)
        assert read >= 999.0

    def test_narrow_accesses_transfer_words_not_lines(self):
        mem = StreamBufferMemory(num_requesters=1, prefetch_depth=0)
        mem.access(0, 0x1000, 4, False, 0.0)   # 64-bit ACP word
        assert mem.port_bytes == 8
        mem.access(0, 0x2000, 64, False, 0.0)  # full line stream
        assert mem.port_bytes == 8 + 64

    def test_summary(self):
        mem = StreamBufferMemory(num_requesters=1, prefetch_depth=0)
        mem.access(0, 0x1000, 64, False, 0.0)
        mem.access(0, 0x2000, 64, True, 0.0)
        s = mem.summary()
        assert s["reads"] == 1 and s["writes"] == 1
        assert s["port_bytes"] == 128

    def test_stream_prefetch_hides_sequential_latency(self):
        mem = StreamBufferMemory(num_requesters=1, acp_latency_ns=100.0,
                                 acp_bandwidth_gbps=100.0, prefetch_depth=4)
        _, hits, misses = stream_access(mem, 0, 0, 64 * 5, False, 0.0)
        assert misses == 1                   # lines 1-4 ride the burst
        assert hits == 4
        _, hits, _ = stream_access(mem, 0, 64 * 4, 64, False, 1000.0)
        assert hits == 1                     # still buffered
        _, _, misses = stream_access(mem, 0, 64 * 5, 64, False, 2000.0)
        assert misses == 1                   # past the prefetch depth


def test_l1_port_contention_serialises_sharers():
    cfg = MemConfig(num_l1=1, l1_port_interval_ns=10.0)
    hier = MemoryHierarchy(cfg)
    hier.access(0, 0x1000, 64, False, 0.0)   # occupies the port
    second = hier.access(0, 0x2000, 64, False, 0.0)
    third = hier.access(0, 0x3000, 64, False, 0.0)
    # Each subsequent same-port access queues behind the previous one.
    assert third > second


def test_l1_port_interval_adds_exact_queue_time():
    """Each L1 port is busy ``interval`` ns per line an access touches;
    a later access on that port stalls until it frees, another L1's port
    is independent, and a port that has drained adds nothing."""
    hier = MemoryHierarchy(MemConfig(num_l1=2, l1_port_interval_ns=10.0))
    hier.access(0, 0x1000, 256, False, 0.0)  # 4 lines: port 0 busy to 40
    assert hier.access(0, 0x1000, 4, False, 5.0) == 35.0  # hit, queued
    assert hier.access(1, 0x8000, 4, True, 5.0) == 0.0    # posted, port 1
    assert hier.access(0, 0x1000, 4, False, 100.0) == 0.0


def test_l1_port_disabled_by_default():
    hier = MemoryHierarchy(MemConfig(num_l1=1))
    hier.access(0, 0x1000, 64, False, 0.0)
    hit = hier.access(0, 0x1000, 4, False, 0.0)
    assert hit == 0.0
