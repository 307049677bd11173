"""Algorithmic tests for queens, knapsack and uts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.executor import SerialExecutor
from repro.workers.knapsack import (
    KnapsackBenchmark,
    fractional_bound,
    knapsack_optimum,
    solve_serial,
)
from repro.workers import queens
from repro.workers.queens import (
    QUEENS_SOLUTIONS,
    QueensBenchmark,
    count_serial,
    valid_columns,
)
from repro.workers.uts import UtsBenchmark, UtsTree, child_id, splitmix64

#: Known N-queens solution counts.
QUEENS_COUNTS = {4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724}


def naive_valid_columns(n, placed):
    """Straightforward per-candidate reference for ``valid_columns``."""
    row = len(placed)
    out = []
    for col in range(n):
        ok = True
        for prev_row, prev_col in enumerate(placed):
            if prev_col == col or abs(prev_col - col) == row - prev_row:
                ok = False
                break
        if ok:
            out.append(col)
    return out


def naive_search(n, placed, results):
    """Reference ``count_serial`` by loops; records the (solutions,
    nodes) of every valid partial placement under ``placed``."""
    if len(placed) == n:
        result = (1, 1)
    else:
        solutions, nodes = 0, 1
        for col in naive_valid_columns(n, placed):
            s, t = naive_search(n, placed + (col,), results)
            solutions += s
            nodes += t
        result = (solutions, nodes)
    results[placed] = result
    return result


class TestQueens:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_kernel_matches_naive_on_every_partial_placement(self, n):
        results = {}
        naive_search(n, (), results)
        for placed, expected in results.items():
            assert count_serial(n, placed) == expected, placed
            assert valid_columns(n, placed) == \
                naive_valid_columns(n, placed), placed

    @pytest.mark.parametrize("n", range(1, 11))
    def test_solution_table_matches_solver(self, n):
        assert QUEENS_SOLUTIONS[n] == count_serial(n, ())[0]

    def test_construction_solves_no_board(self, monkeypatch):
        def solve(*args):
            raise AssertionError("the oracle must not run the kernel")

        monkeypatch.setattr(queens, "count_serial", solve)
        monkeypatch.setattr(queens, "valid_columns", solve)
        bench = QueensBenchmark(n=10, serial_depth=6)
        assert bench.expected() == 724

    @pytest.mark.parametrize("n,expected", sorted(QUEENS_COUNTS.items()))
    def test_serial_counts(self, n, expected):
        assert count_serial(n, ())[0] == expected

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_fork_join_matches_serial(self, n):
        bench = QueensBenchmark(n=n, serial_depth=3)
        result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
        assert result.value == QUEENS_COUNTS[n]

    @given(st.integers(4, 8), st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_any_cutoff_depth(self, n, serial_depth):
        if serial_depth >= n:
            return
        bench = QueensBenchmark(n=n, serial_depth=serial_depth)
        result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
        assert result.value == QUEENS_COUNTS[n]

    def test_valid_columns_respects_attacks(self):
        cols = valid_columns(4, (1,))
        # Row 1 after a queen at (0,1): columns 0,1,2 attacked.
        assert cols == [3]

    def test_invalid_cutoff_rejected(self):
        with pytest.raises(ValueError):
            QueensBenchmark(n=4, serial_depth=4)


class TestKnapsack:
    def test_dp_reference_small(self):
        # Items (value, weight): take 60+50 within capacity 5.
        values, weights = [60, 50, 40], [3, 2, 4]
        assert knapsack_optimum(values, weights, 5) == 110

    def test_dp_reference_nothing_fits(self):
        assert knapsack_optimum([10], [100], 5) == 0

    @given(st.integers(4, 14), st.integers(0, 500), st.integers(0, 10))
    @settings(max_examples=20, deadline=None)
    def test_bnb_matches_dp(self, n, capacity, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        values = rng.integers(1, 100, n)
        weights = rng.integers(1, 100, n)
        # The fractional bound requires density-sorted items (as the
        # benchmark instances are generated).
        order = np.argsort(-(values / weights))
        values = [int(v) for v in values[order]]
        weights = [int(w) for w in weights[order]]
        best, _ = solve_serial(values, weights, 0, capacity, 0, 0)
        assert best == knapsack_optimum(values, weights, capacity)

    def test_fractional_bound_unsorted_items_not_admissible(self):
        """Documents the sortedness precondition: on unsorted items the
        greedy-prefix bound can fall below the true optimum."""
        values, weights = [1, 1000], [1, 100]  # low-density item first
        bound = fractional_bound(values, weights, 0, 100)
        assert bound < knapsack_optimum(values, weights, 100)

    def test_fractional_bound_is_admissible(self):
        values, weights = [60, 50, 40], [3, 2, 4]
        bound = fractional_bound(values, weights, 0, 5)
        assert bound >= 110  # never below the optimum

    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_benchmark_instances_solve(self, seed):
        bench = KnapsackBenchmark(n=14, serial_items=6, seed=seed)
        result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
        assert bench.verify(result.value)

    def test_suffix_values(self):
        bench = KnapsackBenchmark(n=10)
        for i in range(10):
            assert bench.suffix_value[i] == sum(bench.values[i:])
        assert bench.suffix_value[10] == 0


class TestUts:
    def test_splitmix_deterministic(self):
        assert splitmix64(42) == splitmix64(42)
        assert splitmix64(42) != splitmix64(43)

    def test_splitmix_range(self):
        for x in range(100):
            assert 0 <= splitmix64(x) < (1 << 64)

    def test_child_ids_distinct(self):
        ids = {child_id(7, i) for i in range(100)}
        assert len(ids) == 100

    def test_tree_count_matches_worker(self):
        bench = UtsBenchmark(root_children=20, q=0.2)
        result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
        assert result.value == bench.tree.count_nodes()

    def test_infinite_tree_rejected(self):
        with pytest.raises(ValueError):
            UtsTree(q=0.5, num_children=4)  # q*m = 2 >= 1

    def test_max_depth_caps_tree(self):
        shallow = UtsTree(root_children=10, q=0.4, num_children=2,
                          max_depth=2, root_id=1)
        deep = UtsTree(root_children=10, q=0.4, num_children=2,
                       max_depth=20, root_id=1)
        assert shallow.count_nodes() <= deep.count_nodes()

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_any_seed_consistent(self, root_id):
        tree = UtsTree(root_children=10, q=0.25, num_children=3,
                       root_id=root_id)
        bench = UtsBenchmark(root_children=10, q=0.25, num_children=3,
                             root_id=root_id)
        result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
        assert result.value == tree.count_nodes()

    def test_tree_is_unbalanced(self):
        """Subtree sizes under the root should vary wildly — that is the
        benchmark's point."""
        bench = UtsBenchmark()
        tree = bench.tree
        sizes = []
        for i in range(tree.root_children):
            total = 0
            stack = [(child_id(tree.root_id, i), 1)]
            while stack:
                node, depth = stack.pop()
                total += 1
                for j in range(tree.child_count(node, depth)):
                    stack.append((child_id(node, j), depth + 1))
            sizes.append(total)
        assert max(sizes) > 10 * max(1, min(sizes))
