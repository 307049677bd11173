"""Zedboard ARM Cortex-A9 CPU model for the Figure 6 prototype study.

The Zynq-7000's processing system has two Cortex-A9 cores at 667 MHz —
dual-issue, modestly out-of-order — with 32 kB L1s and a 512 kB shared L2.
Compared to the Table III cores they are slower per cycle and per clock,
which is captured by (a) the 667 MHz clock domain and (b) benchmark CPU
cost tables scaled by :data:`A9_CPI_FACTOR` when building Zynq runs.
"""

from __future__ import annotations

from repro.arch.config import AcceleratorConfig
from repro.cpu.multicore import cpu_config
from repro.mem.coherence import MemLatencies
from repro.sim.timing import ZYNQ_CPU_CLOCK

#: Per-task cycle inflation of a dual-issue A9 relative to the four-issue
#: OOO core of Table III (fewer issue slots, smaller window).
A9_CPI_FACTOR = 1.8

#: Zynq PS memory latencies at ns scale: same L1 behaviour, slower L2 and
#: cache-to-cache transfers (DRAM latency is ``dram_access_ns`` below).
ZYNQ_MEM_LATENCIES = MemLatencies(
    l2_hit_ns=18.0,
    c2c_ns=25.0,
)


def zynq_cpu_config(num_cores: int = 2, **overrides) -> AcceleratorConfig:
    """Configuration for the Zedboard's two A9 cores."""
    defaults = dict(
        clock=ZYNQ_CPU_CLOCK,
        mem_latencies=ZYNQ_MEM_LATENCIES,
        l1_size=32 * 1024,
        dram_bandwidth_gbps=3.2,   # 32-bit DDR3-800 on Zedboard
        dram_access_ns=70.0,
    )
    defaults.update(overrides)
    return cpu_config(num_cores, **defaults)
