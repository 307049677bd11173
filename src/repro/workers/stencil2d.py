"""stencil2d — 3x3 stencil over a 2D image (MachSuite), parallel-for.

The image is broken into row strips and processed with a parallel-for
across strips (Table II: regular access, high memory intensity).  Each
output row streams three input rows; the accelerator worker is a pipelined
window datapath producing several pixels per cycle, so performance is set
by memory bandwidth at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

import numpy as np

from repro.arch.lite import LiteProgram
from repro.core.context import Worker, WorkerContext
from repro.core.patterns import ParallelForMixin, pattern_task_types
from repro.core.task import HOST_CONTINUATION, Task
from repro.workers.base import ACCEL, Benchmark, Costs, register

STRIP_LITE = "STENCIL_STRIP_LITE"

#: 3x3 kernel from MachSuite's stencil2d.
KERNEL = np.array([[0, 1, 0], [1, 2, 1], [0, 1, 0]], dtype=np.int32)


@dataclass(frozen=True)
class StencilCosts(Costs):
    cycles_per_16px: int
    row_fixed: int


#: Window datapath at II=1 producing one pixel per cycle (the 9-tap MAC
#: tree accounts for the 12 DSPs of Table V).
ACCEL_COSTS = StencilCosts(cycles_per_16px=16, row_fixed=6)
#: Partially vectorised 3x3 on the OOO core: ~2.5 cycles per pixel.
CPU_COSTS = StencilCosts(cycles_per_16px=40, row_fixed=20)


def apply_stencil_rows(src: np.ndarray, dst: np.ndarray, r0: int, r1: int
                       ) -> None:
    """Compute output rows ``[r0, r1)`` (interior rows only)."""
    for r in range(r0, r1):
        acc = np.zeros(src.shape[1] - 2, dtype=np.int64)
        for dr in range(3):
            for dc in range(3):
                weight = int(KERNEL[dr, dc])
                if weight:
                    acc += weight * src[r - 1 + dr, dc:src.shape[1] - 2 + dc]
        dst[r, 1:-1] = acc.astype(np.int32)


class StencilWorker(ParallelForMixin, Worker):
    """Strip-parallel 3x3 stencil worker."""

    name = "stencil2d"
    task_types = pattern_task_types("strips") + (STRIP_LITE,)
    pf_grains = {"strips": 4}

    def __init__(self, bench: "StencilBenchmark", costs: StencilCosts
                 ) -> None:
        self.bench = bench
        self.costs = costs

    def execute(self, task: Task, ctx: WorkerContext) -> None:
        if task.task_type == STRIP_LITE:
            lo, hi = task.args
            self._strip(ctx, lo, hi)
            ctx.send_arg(task.k, 0)
            return
        if not self.pf_dispatch(task, ctx):
            raise AssertionError(f"unhandled task {task.task_type!r}")

    def pf_leaf_strips(self, ctx: WorkerContext, k, lo: int, hi: int):
        self._strip(ctx, lo, hi)
        return 0

    def _strip(self, ctx: WorkerContext, lo: int, hi: int) -> None:
        bench, costs = self.bench, self.costs
        apply_stencil_rows(bench.src, bench.dst, lo, hi)
        width = bench.width
        row_bytes = 4 * width
        pixels = (hi - lo) * (width - 2)
        ctx.compute(costs.row_fixed * (hi - lo)
                    + (pixels * costs.cycles_per_16px) // 16)
        # Each strip streams rows lo-1 .. hi and writes rows lo .. hi-1.
        for r in range(lo - 1, hi + 1):
            ctx.read_block(bench.src_region.base + r * row_bytes, row_bytes)
        for r in range(lo, hi):
            ctx.write_block(bench.dst_region.base + r * row_bytes, row_bytes)


class StencilLite(LiteProgram):
    """Single static parallel-for round across strips."""

    name = "stencil2d-lite"

    def __init__(self, bench: "StencilBenchmark", strip: int = 4) -> None:
        self.bench = bench
        self.strip = strip

    def rounds(self) -> Generator[List[Task], List, None]:
        height = self.bench.height
        strips = [(lo, min(lo + self.strip, height - 1))
                  for lo in range(1, height - 1, self.strip)]
        yield [Task(STRIP_LITE, self.host_k(i), s)
               for i, s in enumerate(strips)]

    def result(self):
        return 0


@register
class StencilBenchmark(Benchmark):
    """3x3 stencil on a random int32 image."""

    name = "stencil2d"
    parallelization = "pf"
    recursive_nested = False
    data_dependent = False
    memory_pattern = "regular"
    memory_intensity = "high"
    has_lite = True

    def __init__(self, height: int = 256, width: int = 256, seed: int = 8
                 ) -> None:
        super().__init__()
        self.height = height
        self.width = width
        rng = np.random.default_rng(seed)
        self.src_region = self.mem.alloc("src", 4 * height * width)
        self.dst_region = self.mem.alloc("dst", 4 * height * width)
        self.src = rng.integers(0, 256, size=(height, width)).astype(np.int32)
        self.dst = np.zeros((height, width), dtype=np.int32)
        # The oracle sums nine shifted whole-image slices instead of
        # running the workers' row kernel.
        expected = np.zeros_like(self.dst)
        inner = expected[1:-1, 1:-1]
        rows, cols = inner.shape
        acc = np.zeros(inner.shape, dtype=np.int64)
        for (dr, dc), weight in np.ndenumerate(KERNEL):
            acc += int(weight) * self.src[dr:dr + rows, dc:dc + cols]
        inner[...] = acc
        self._expected = expected

    def flex_worker(self, platform: str = ACCEL) -> Worker:
        costs = ACCEL_COSTS if platform == ACCEL else CPU_COSTS
        return StencilWorker(self, costs)

    def root_task(self) -> Task:
        from repro.core.patterns import split_task_type

        return Task(split_task_type("strips"), HOST_CONTINUATION,
                    (1, self.height - 1))

    def lite_program(self, num_pes: int) -> LiteProgram:
        return StencilLite(self)

    def verify(self, host_value) -> bool:
        return bool(np.array_equal(self.dst, self._expected))

    def expected(self):
        return "3x3 stencil image"
