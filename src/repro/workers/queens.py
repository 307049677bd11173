"""queens — N-queens solution counting, fork-join search (Cilk apps).

Each task extends a partial placement by one row, forking a child per
valid column with a variable-arity SUM successor.  Below a cutoff depth
the remaining subtree is solved serially inside the task — mirroring how
the paper's PE "checks multiple candidate locations on a chessboard in
parallel" as application-specific hardware parallelism (Section V-D): the
accelerator cost model charges a whole row of candidate checks in a couple
of cycles, while the CPU pays per candidate.

The LiteArch port expands the placement tree breadth-first, one round per
row, then a final round where each leaf solves its subtree serially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Tuple

from repro.arch.lite import LiteProgram
from repro.core.context import Worker, WorkerContext
from repro.core.task import HOST_CONTINUATION, Task
from repro.workers.base import ACCEL, Benchmark, Costs, register

QROW = "QROW"
QSUM = "QSUM"
QROW_LITE = "QROW_LITE"
QCOUNT_LITE = "QCOUNT_LITE"


@dataclass(frozen=True)
class QueensCosts(Costs):
    row_check: int        # validity check of all candidate columns
    serial_per_node: int  # per explored node of the serial subtree solver
    sum_fixed: int


#: The HLS worker checks all candidates of a row in parallel and explores
#: one node per couple of cycles with an unrolled conflict check.
ACCEL_COSTS = QueensCosts(row_check=2, serial_per_node=2, sum_fixed=1)
#: Software checks candidates in a loop: ~2 cycles per candidate for the
#: vectorised conflict masks plus call overhead per node.
CPU_COSTS = QueensCosts(row_check=22, serial_per_node=16, sum_fixed=8)


#: Number of N-queens solutions for n = 1..16 (OEIS A000170): the
#: benchmark's oracle, independent of the solver under test.
QUEENS_SOLUTIONS = {
    1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
    11: 2680, 12: 14200, 13: 73712, 14: 365596, 15: 2279184, 16: 14772512,
}


def _attack_masks(n: int, placed: Tuple[int, ...]) -> Tuple[int, int, int]:
    """Column, left-diagonal and right-diagonal bitmasks of the squares
    the queens of ``placed`` attack in row ``len(placed)``."""
    full = (1 << n) - 1
    cols = left = right = 0
    for col in placed:
        bit = 1 << col
        cols |= bit
        left = ((left | bit) << 1) & full
        right = (right | bit) >> 1
    return cols, left, right


def valid_columns(n: int, placed: Tuple[int, ...]) -> List[int]:
    """Columns where a queen can go in row ``len(placed)``, ascending."""
    cols, left, right = _attack_masks(n, placed)
    free = ((1 << n) - 1) & ~(cols | left | right)
    out = []
    while free:
        bit = free & -free
        free ^= bit
        out.append(bit.bit_length() - 1)
    return out


def _count(full: int, cols: int, left: int, right: int,
           rows: int) -> Tuple[int, int]:
    """(solutions, nodes) of the subtree with ``rows`` (>= 1) rows left."""
    free = full & ~(cols | left | right)
    if rows == 1:
        # Every free square of the last row is a one-node solution.
        leaves = bin(free).count("1")
        return leaves, leaves + 1
    solutions, nodes = 0, 1
    rows -= 1
    while free:
        bit = free & -free
        free ^= bit
        s, t = _count(full, cols | bit, ((left | bit) << 1) & full,
                      (right | bit) >> 1, rows)
        solutions += s
        nodes += t
    return solutions, nodes


def count_serial(n: int, placed: Tuple[int, ...]) -> Tuple[int, int]:
    """Count solutions under ``placed``; returns (solutions, nodes).

    ``nodes`` counts every placement explored, ``placed`` itself, dead
    ends and complete boards included (the serial solver's cost).
    """
    rows = n - len(placed)
    if rows == 0:
        return 1, 1
    return _count((1 << n) - 1, *_attack_masks(n, placed), rows)


class QueensWorker(Worker):
    """Fork-join N-queens worker (plus the LiteArch leaf tasks)."""

    name = "queens"
    task_types = (QROW, QSUM, QROW_LITE, QCOUNT_LITE)

    def __init__(self, bench: "QueensBenchmark", costs: QueensCosts) -> None:
        self.bench = bench
        self.costs = costs

    def execute(self, task: Task, ctx: WorkerContext) -> None:
        n, costs = self.bench.n, self.costs
        if task.task_type == QSUM:
            ctx.compute(costs.sum_fixed)
            ctx.send_arg(task.k, sum(task.args))
            return
        if task.task_type == QCOUNT_LITE:
            total_solutions = total_nodes = 0
            for placed in task.args[0]:
                solutions, nodes = count_serial(n, placed)
                total_solutions += solutions
                total_nodes += nodes
            ctx.compute(costs.serial_per_node * total_nodes)
            ctx.send_arg(task.k, total_solutions)
            return
        if task.task_type == QROW_LITE:
            boards = task.args[0]
            ctx.compute(costs.row_check * len(boards))
            children = [placed + (c,) for placed in boards
                        for c in valid_columns(n, placed)]
            ctx.send_arg(task.k, tuple(children))
            return
        placed: Tuple[int, ...] = task.args[0]
        # QROW: fork-join expansion.
        row = len(placed)
        if n - row <= self.bench.serial_depth:
            solutions, nodes = count_serial(n, placed)
            ctx.compute(costs.serial_per_node * nodes)
            ctx.send_arg(task.k, solutions)
            return
        ctx.compute(costs.row_check)
        cols = valid_columns(n, placed)
        if not cols:
            ctx.send_arg(task.k, 0)
            return
        k = ctx.make_successor(QSUM, task.k, len(cols))
        for slot, col in enumerate(reversed(cols)):
            ctx.spawn(Task(QROW, k.with_slot(len(cols) - 1 - slot),
                           (placed + (col,),)))


class QueensLite(LiteProgram):
    """Breadth-first LiteArch port: one round per expanded row."""

    name = "queens-lite"

    def __init__(self, bench: "QueensBenchmark", num_pes: int) -> None:
        self.bench = bench
        self.num_pes = num_pes
        self._total = 0

    def rounds(self) -> Generator[List[Task], List, None]:
        from repro.arch.lite import chunk_frontier

        bench = self.bench
        frontier: List[Tuple[int, ...]] = [()]
        expand_rows = bench.n - bench.serial_depth
        for round_id in range(expand_rows):
            chunks = chunk_frontier(frontier, self.num_pes)
            tasks = [Task(QROW_LITE, self.host_k(i, round_id), (c,))
                     for i, c in enumerate(chunks)]
            values = yield tasks
            frontier = [child for children in values for child in children]
            if not frontier:
                break
        if frontier:
            chunks = chunk_frontier(frontier, self.num_pes, max_chunk=16)
            tasks = [Task(QCOUNT_LITE, self.host_k(i, expand_rows), (c,))
                     for i, c in enumerate(chunks)]
            values = yield tasks
            self._total = sum(values)

    def result(self):
        return self._total


@register
class QueensBenchmark(Benchmark):
    """Count all N-queens solutions."""

    name = "queens"
    parallelization = "fj"
    recursive_nested = True
    data_dependent = True
    memory_pattern = "regular"
    memory_intensity = "low"
    has_lite = True

    def __init__(self, n: int = 10, serial_depth: int = 6) -> None:
        super().__init__()
        if n not in QUEENS_SOLUTIONS:
            raise ValueError(
                f"n={n} outside the known solution counts "
                f"(1..{max(QUEENS_SOLUTIONS)})")
        if serial_depth < 0:
            raise ValueError(f"serial_depth={serial_depth} must be >= 0")
        if serial_depth >= n:
            raise ValueError("serial_depth must leave rows to fork over")
        self.n = n
        self.serial_depth = serial_depth
        self._expected = QUEENS_SOLUTIONS[n]

    def flex_worker(self, platform: str = ACCEL) -> Worker:
        costs = ACCEL_COSTS if platform == ACCEL else CPU_COSTS
        return QueensWorker(self, costs)

    def root_task(self) -> Task:
        return Task(QROW, HOST_CONTINUATION, ((),))

    def lite_program(self, num_pes: int) -> LiteProgram:
        return QueensLite(self, num_pes)

    def verify(self, host_value) -> bool:
        return host_value == self._expected

    def expected(self):
        return self._expected
