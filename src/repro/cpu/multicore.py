"""Multicore CPU model running the software task runtime.

The cores of Table III: eight four-issue out-of-order cores at 1 GHz with
per-core 32 kB L1s, the shared 2 MB L2 and the same DRAM channel.  Each
core executes the benchmark worker compiled for the CPU (a per-benchmark
CPU cost table reflects `-O3` + NEON auto-vectorised code on the OOO
pipeline), under a Cilk-Plus-style work-stealing runtime whose scheduling
operations cost instructions rather than dedicated hardware.

The model deliberately reuses the FlexArch engine — the scheduling
*semantics* are identical (that is the paper's point) — swapping in
software cost parameters, a runtime cost "network", CPU-domain memory
latencies, and cacheable scratchpad traffic.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Union

from repro.arch.accelerator import DEFAULT_MAX_CYCLES, FlexAccelerator
from repro.arch.config import AcceleratorConfig
from repro.arch.result import RunResult
from repro.core.context import Worker
from repro.core.task import Task
from repro.cpu.runtime import RuntimeCostModel, SoftwareRuntimeNetwork
from repro.mem.coherence import MemLatencies
from repro.sim.timing import CPU_CLOCK, ClockDomain

#: CPU-domain stall contributions (Table III at 1 GHz).
CPU_MEM_LATENCIES = MemLatencies(
    l2_hit_ns=10.0,
    c2c_ns=15.0,
)


def cpu_config(
    num_cores: int,
    clock: ClockDomain = CPU_CLOCK,
    **overrides,
) -> AcceleratorConfig:
    """Platform configuration for the software baseline.

    One "tile" per core (each core has a private L1).  The queue, dispatch
    and join costs are software instruction counts; steal costs live in
    :class:`RuntimeCostModel`.
    """
    defaults = dict(
        arch="flex",
        num_tiles=num_cores,
        pes_per_tile=1,
        task_queue_entries=4096,     # deques live in memory
        pstore_entries=65536,        # join frames live in memory
        l1_size=32 * 1024,
        clock=clock,
        queue_op_cycles=8,           # THE-protocol push/pop
        dispatch_cycles=4,           # frame setup
        pstore_local_cycles=12,      # successor (join frame) allocation
        net_hop_cycles=10,
        steal_backoff_cycles=50,     # software back-off between attempts
        idle_poll_cycles=20,
        memory="coherent",
        mem_latencies=CPU_MEM_LATENCIES,
    )
    defaults.update(overrides)
    return AcceleratorConfig(**defaults)


class MulticoreCPU(FlexAccelerator):
    """The software baseline engine: cores + Cilk-style runtime."""

    scratchpad_local = False  # CPUs have no scratchpads

    def __init__(
        self,
        config: AcceleratorConfig,
        worker: Worker,
        runtime_costs: RuntimeCostModel = RuntimeCostModel(),
    ) -> None:
        super().__init__(config, worker)
        self.net = SoftwareRuntimeNetwork(runtime_costs)

    def run(
        self,
        root: Union[Task, Sequence[Task]],
        max_cycles: int = DEFAULT_MAX_CYCLES,
        label: str = "",
    ) -> RunResult:
        return super().run(
            root, max_cycles, label or f"cpu{self.config.num_pes}"
        )


def make_multicore(num_cores: int, worker: Worker, **overrides) -> MulticoreCPU:
    """Convenience constructor for the Table III CPU."""
    return MulticoreCPU(cpu_config(num_cores, **overrides), worker)
