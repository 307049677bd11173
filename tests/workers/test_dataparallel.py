"""Algorithmic tests for bbgemm, bfsqueue, spmvcrs and stencil2d."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.executor import ReferenceScheduler, SerialExecutor
from repro.workers import stencil2d
from repro.workers.bbgemm import BbgemmBenchmark
from repro.workers.bfsqueue import BfsBenchmark, make_graph, reference_bfs
from repro.workers.spmvcrs import SpmvBenchmark
from repro.workers.stencil2d import KERNEL, StencilBenchmark, apply_stencil_rows


class TestBbgemm:
    @settings(max_examples=8, deadline=None)
    @given(n=st.sampled_from([32, 64, 96]), seed=st.integers(0, 50))
    def test_matches_numpy(self, n, seed):
        bench = BbgemmBenchmark(n=n, block=32, seed=seed)
        result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
        assert bench.verify(result.value)
        assert np.array_equal(bench.c, bench.a @ bench.b)

    def test_parallel_correct(self):
        bench = BbgemmBenchmark(n=96, block=32)
        ReferenceScheduler(bench.flex_worker(), 4).run(bench.root_task())
        assert np.array_equal(bench.c, bench.a @ bench.b)

    def test_block_must_divide(self):
        with pytest.raises(ValueError):
            BbgemmBenchmark(n=100, block=32)

    def test_lite_covers_all_blocks(self):
        bench = BbgemmBenchmark(n=64, block=32)
        rounds = list(bench.lite_program(4).rounds())
        assert len(rounds) == 1
        assert len(rounds[0]) == 4  # 2x2 blocks


class TestBfs:
    @settings(max_examples=10, deadline=None)
    @given(nodes=st.integers(16, 400), degree=st.integers(1, 8),
           seed=st.integers(0, 100))
    def test_matches_reference(self, nodes, degree, seed):
        bench = BfsBenchmark(num_nodes=nodes, avg_degree=degree, seed=seed)
        result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
        assert bench.verify(result.value)

    def test_reference_bfs_counts_reachable(self):
        row_ptr = np.array([0, 2, 3, 3, 3])
        cols = np.array([1, 2, 0, 99])[:3]
        assert reference_bfs(row_ptr, cols, 0) == 3

    def test_isolated_root(self):
        row_ptr = np.zeros(5, dtype=np.int64)
        cols = np.array([], dtype=np.int64)
        assert reference_bfs(row_ptr, cols, 0) == 1

    def test_parallel_matches_serial(self):
        serial = BfsBenchmark(num_nodes=256, avg_degree=4)
        sr = SerialExecutor(serial.flex_worker()).run(serial.root_task())
        parallel = BfsBenchmark(num_nodes=256, avg_degree=4)
        pr = ReferenceScheduler(parallel.flex_worker(), 4).run(
            parallel.root_task()
        )
        assert sr.value == pr.value

    def test_make_graph_csr_valid(self):
        row_ptr, cols = make_graph(128, 6, seed=1)
        assert len(row_ptr) == 129
        assert row_ptr[0] == 0
        assert (np.diff(row_ptr) >= 0).all()
        assert row_ptr[-1] == len(cols)
        assert ((cols >= 0) & (cols < 128)).all()


class TestSpmv:
    @settings(max_examples=10, deadline=None)
    @given(rows=st.integers(8, 256), nnz=st.integers(1, 12),
           seed=st.integers(0, 100))
    def test_matches_numpy(self, rows, nnz, seed):
        bench = SpmvBenchmark(num_rows=rows, nnz_per_row=nnz, seed=seed)
        result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
        assert bench.verify(result.value)

    def test_parallel_correct(self):
        bench = SpmvBenchmark(num_rows=128)
        ReferenceScheduler(bench.flex_worker(), 4).run(bench.root_task())
        assert bench.verify(0)

    def test_expected_is_dense_product(self):
        bench = SpmvBenchmark(num_rows=64, nnz_per_row=4, seed=0)
        dense = np.zeros((64, 64))
        for r in range(64):
            for j in range(bench.row_ptr[r], bench.row_ptr[r + 1]):
                dense[r, bench.cols[j]] += bench.vals[j]
        assert np.allclose(bench._expected, dense @ bench.x)


class TestStencil:
    def test_kernel_is_machsuite_cross(self):
        assert KERNEL.sum() == 6
        assert KERNEL[1, 1] == 2

    @settings(max_examples=10, deadline=None)
    @given(h=st.integers(8, 64), w=st.integers(8, 64),
           seed=st.integers(0, 100))
    def test_matches_direct_convolution(self, h, w, seed):
        bench = StencilBenchmark(height=h, width=w, seed=seed)
        result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
        assert bench.verify(result.value)
        # Cross-check one interior pixel against the definition.
        r, c = h // 2, w // 2
        expected = sum(
            int(KERNEL[dr, dc]) * int(bench.src[r - 1 + dr, c - 1 + dc])
            for dr in range(3) for dc in range(3)
        )
        assert bench.dst[r, c] == expected

    @pytest.mark.parametrize("h,w", [(3, 3), (5, 17), (40, 24)])
    def test_oracle_matches_pixelwise_definition(self, h, w, monkeypatch):
        def rows(*args):
            raise AssertionError("the oracle must not run the kernel")

        monkeypatch.setattr(stencil2d, "apply_stencil_rows", rows)
        bench = StencilBenchmark(height=h, width=w, seed=h + w)
        expected = np.zeros((h, w), dtype=np.int64)
        for r in range(1, h - 1):
            for c in range(1, w - 1):
                expected[r, c] = sum(
                    int(KERNEL[dr, dc]) * int(bench.src[r - 1 + dr,
                                                        c - 1 + dc])
                    for dr in range(3) for dc in range(3))
        assert bench._expected.dtype == np.int32
        assert np.array_equal(bench._expected, expected)

    def test_borders_untouched(self):
        bench = StencilBenchmark(height=16, width=16)
        SerialExecutor(bench.flex_worker()).run(bench.root_task())
        assert (bench.dst[0, :] == 0).all()
        assert (bench.dst[-1, :] == 0).all()
        assert (bench.dst[:, 0] == 0).all()
        assert (bench.dst[:, -1] == 0).all()

    def test_apply_rows_partial_range(self):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 9, (10, 10)).astype(np.int32)
        full = np.zeros_like(src)
        apply_stencil_rows(src, full, 1, 9)
        partial = np.zeros_like(src)
        apply_stencil_rows(src, partial, 3, 5)
        assert np.array_equal(partial[3:5], full[3:5])
        assert (partial[:3] == 0).all() and (partial[5:] == 0).all()
