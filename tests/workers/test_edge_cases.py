"""Degenerate and minimum-size benchmark instances."""

import numpy as np
import pytest

from repro.core.executor import SerialExecutor
from repro.workers import make_benchmark
from repro.workers.fib import FibBenchmark
from repro.workers.quicksort import QuicksortBenchmark
from repro.workers.cilksort import CilksortBenchmark
from repro.workers.stencil2d import StencilBenchmark
from repro.workers.bbgemm import BbgemmBenchmark
from repro.workers.spmvcrs import SpmvBenchmark
from repro.workers.bfsqueue import BfsBenchmark
from repro.workers.uts import UtsBenchmark


def verify_serial(bench):
    result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
    assert bench.verify(result.value)
    return result


def test_fib_base_cases():
    for n in (0, 1, 2):
        bench = FibBenchmark(n=n)
        result = verify_serial(bench)
        assert result.value == bench.expected()


def test_quicksort_tiny_array():
    verify_serial(QuicksortBenchmark(n=2, cutoff=64))


def test_quicksort_all_equal_elements():
    bench = QuicksortBenchmark(n=512, cutoff=16)
    bench.data[:] = 7
    bench._expected = np.sort(bench.data.copy())
    verify_serial(bench)


def test_quicksort_already_sorted():
    bench = QuicksortBenchmark(n=512, cutoff=16)
    bench.data[:] = np.arange(512, dtype=np.int32)
    bench._expected = np.sort(bench.data.copy())
    verify_serial(bench)


def test_quicksort_reverse_sorted():
    bench = QuicksortBenchmark(n=512, cutoff=16)
    bench.data[:] = np.arange(512, 0, -1).astype(np.int32)
    bench._expected = np.sort(bench.data.copy())
    verify_serial(bench)


def test_cilksort_single_element():
    verify_serial(CilksortBenchmark(n=1, sort_cutoff=4, merge_cutoff=4))


def test_cilksort_power_of_two_and_odd_sizes():
    for n in (64, 65, 127):
        verify_serial(CilksortBenchmark(n=n, sort_cutoff=8,
                                        merge_cutoff=8))


def test_stencil_minimum_interior():
    verify_serial(StencilBenchmark(height=3, width=3))


def test_bbgemm_single_block():
    verify_serial(BbgemmBenchmark(n=32, block=32))


def test_spmv_single_row():
    verify_serial(SpmvBenchmark(num_rows=1, nnz_per_row=1))


def test_bfs_single_node_graph():
    bench = BfsBenchmark(num_nodes=1, avg_degree=0)
    result = verify_serial(bench)
    assert result.value == 1


def test_uts_leaf_only_root():
    bench = UtsBenchmark(root_children=1, q=0.0, num_children=1)
    result = verify_serial(bench)
    assert result.value == 2  # root + one child


def test_uts_depth_one():
    bench = UtsBenchmark(root_children=5, q=0.2, max_depth=1)
    result = verify_serial(bench)
    assert result.value == 6  # root + 5 leaves


def test_nw_two_blocks():
    bench = make_benchmark("nw", n=16, block=8)
    verify_serial(bench)


def test_knapsack_capacity_zero():
    bench = make_benchmark("knapsack", n=10, capacity=0, serial_items=5)
    result = verify_serial(bench)
    assert result.value == 0


def test_knapsack_everything_fits():
    bench = make_benchmark("knapsack", n=8, capacity=10**6, serial_items=4)
    result = verify_serial(bench)
    assert result.value == sum(bench.values)


def test_queens_trivial_boards():
    from repro.workers.queens import QueensBenchmark

    # n=2 and n=3 have zero solutions.
    for n in (2, 3):
        bench = QueensBenchmark(n=n, serial_depth=1)
        result = verify_serial(bench)
        assert result.value == 0


@pytest.mark.parametrize("n", [0, -3, 17])
def test_queens_board_outside_solution_table_rejected(n):
    from repro.workers.queens import QueensBenchmark

    with pytest.raises(ValueError, match=r"\bn="):
        QueensBenchmark(n=n, serial_depth=0)


def test_queens_negative_serial_depth_rejected():
    from repro.workers.queens import QueensBenchmark

    # A negative cutoff would send a complete board down the fork path.
    with pytest.raises(ValueError, match="serial_depth"):
        QueensBenchmark(n=6, serial_depth=-1)


def test_queens_zero_serial_depth_forks_to_complete_boards():
    from repro.workers.queens import QueensBenchmark

    result = verify_serial(QueensBenchmark(n=6, serial_depth=0))
    assert result.value == 4


@pytest.mark.parametrize("block", [0, -8])
def test_nw_nonpositive_block_rejected(block):
    with pytest.raises(ValueError, match="block"):
        make_benchmark("nw", n=16, block=block)


def test_nw_single_cell_blocks():
    verify_serial(make_benchmark("nw", n=4, block=1))
