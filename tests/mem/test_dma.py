"""Tests for the DMA-based (non-coherent) memory path."""

import pytest

from repro.harness.runners import run_flex
from repro.mem.dma import DmaMemory


class TestDmaMemory:
    def test_read_burst_stalls_setup_plus_transfer(self):
        dma = DmaMemory(num_engines=1, setup_ns=80.0,
                        dram_access_ns=50.0, dram_bandwidth_gbps=12.8)
        stall = dma.access(0, 0x1000, 64, False, 0.0)
        assert stall == pytest.approx(80.0 + 50.0 + 64 / 12.8)
        assert dma.read_bursts == 1

    def test_write_burst_posted(self):
        dma = DmaMemory(num_engines=1)
        assert dma.access(0, 0x1000, 256, True, 0.0) == 0.0
        assert dma.write_bursts == 1

    def test_engine_serialises_bursts(self):
        dma = DmaMemory(num_engines=1, setup_ns=80.0)
        first = dma.access(0, 0x1000, 64, False, 0.0)
        second = dma.access(0, 0x2000, 64, False, 0.0)
        assert second > first

    def test_engines_are_per_tile(self):
        dma = DmaMemory(num_engines=2, setup_ns=80.0,
                        dram_bandwidth_gbps=1e9)  # isolate engine effect
        dma.access(0, 0x1000, 64, False, 0.0)
        other = dma.access(1, 0x2000, 64, False, 0.0)
        assert other == pytest.approx(80.0 + 50.0, abs=1.0)

    def test_shared_dram_bandwidth(self):
        dma = DmaMemory(num_engines=2, setup_ns=0.0, dram_access_ns=0.0,
                        dram_bandwidth_gbps=0.064)  # 1000 ns per line
        first = dma.access(0, 0x1000, 64, False, 0.0)
        second = dma.access(1, 0x2000, 64, False, 0.0)
        assert second >= first + 999.0

    def test_large_bursts_amortise_setup(self):
        dma = DmaMemory(num_engines=1, setup_ns=100.0)
        big = dma.access(0, 0, 4096, False, 0.0)
        small_total = 0.0
        dma2 = DmaMemory(num_engines=1, setup_ns=100.0)
        for i in range(64):
            small_total += dma2.access(0, i * 64, 64, False, small_total)
        assert big < small_total / 4

    def test_needs_engines(self):
        with pytest.raises(ValueError):
            DmaMemory(num_engines=0)

    @pytest.mark.parametrize("nbytes", [0, -8])
    def test_empty_burst_rejected(self, nbytes):
        """Like the other memory models, a burst must move at least one
        byte: an empty or negative one is rejected before it stalls the
        engine or reaches the byte counters."""
        dma = DmaMemory(num_engines=1)
        with pytest.raises(
                ValueError,
                match=f"access must cover at least one byte: {nbytes}"):
            dma.access(0, 0, nbytes, False, 0.0)
        assert (dma.bursts, dma.bytes_moved) == (0, 0)
        assert dma.dram.stats.bytes_transferred == 0

    def test_summary(self):
        dma = DmaMemory(num_engines=1)
        dma.access(0, 0, 128, False, 0.0)
        dma.access(0, 0, 64, True, 0.0)
        s = dma.summary()
        assert s["dma_bursts"] == 2
        assert s["dma_bytes"] == 192


class TestDmaEngineIntegration:
    """Section III-D's trade-off, quantified end to end."""

    def test_all_benchmarks_verify_on_dma(self):
        for name in ("queens", "stencil2d", "quicksort"):
            run_flex(name, 4, quick=True, memory="dma")

    def test_compute_bound_unaffected(self):
        coherent = run_flex("queens", 4, quick=True)
        dma = run_flex("queens", 4, quick=True, memory="dma")
        assert dma.cycles <= 1.1 * coherent.cycles

    def test_streaming_pays_moderately(self):
        coherent = run_flex("stencil2d", 4, quick=True)
        dma = run_flex("stencil2d", 4, quick=True, memory="dma")
        assert 1.5 < dma.cycles / coherent.cycles < 30

    def test_irregular_collapses(self):
        """Per-gather DMA descriptors make spmvcrs catastrophic — why the
        paper argues for cache-coherent integration for irregular apps."""
        coherent = run_flex("spmvcrs", 4, quick=True)
        dma = run_flex("spmvcrs", 4, quick=True, memory="dma")
        assert dma.cycles > 10 * coherent.cycles
