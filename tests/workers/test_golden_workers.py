"""Golden pinning of the worker benchmarks without another pin.

The scheduling goldens (``tests/sched/test_golden_random.py``) cover
fib/quicksort/uts and the memory goldens
(``tests/mem/test_golden_memory.py``) the memory-bound benchmarks.  This
suite pins queens, nw, knapsack and cilksort at quick size: end-to-end
``cycles`` and the :class:`~repro.exec.record.RunRecord` digest, which
covers every per-PE counter, the memory summary and the host value.
The platforms are FlexArch at 16 PEs, LiteArch at 16 PEs where a lite
port exists, and the 4-core CPU baseline.

The constants were captured before the queens and nw functional
kernels were rewritten for host speed: a kernel rewrite must keep its
worker's op stream (task arguments, spawn order, compute charges and
memory ops), so none of them may move.  Each case runs on both kernel
backends, selected through ``REPRO_BACKEND`` so the spec digest (and
hence the record digest) does not depend on the backend.

Any diff here means a worker's op stream or the timing it feeds
drifted — fix the code, do not re-record the goldens.
"""

import pytest

from repro.exec import make_spec
from repro.exec.runner import execute
from repro.kernel import BACKEND_ENV, BACKEND_NAMES

#: "benchmark-platform" -> (cycles, record digest prefix), quick sizes.
GOLDEN = {
    "queens-flex16": (1812, "deb33a8bd2feacb3"),
    "nw-flex16": (3032, "f7a8d3dd8d57afd9"),
    "knapsack-flex16": (782, "c5a97d2fb494f854"),
    "cilksort-flex16": (4878, "ce97f690647543f4"),
    "queens-lite16": (1704, "1f8822c0df8fe8de"),
    "nw-lite16": (3923, "75867a29067f1973"),
    "knapsack-lite16": (6176, "ec73b5bf34354896"),
    "queens-cpu4": (51065, "17f52c779e936897"),
    "nw-cpu4": (60285, "ad3e0422b09913ff"),
    "knapsack-cpu4": (18136, "2952073c7bd4618c"),
    "cilksort-cpu4": (82475, "0daed08065f0d411"),
}

#: platform -> (engine, PEs/cores).
PLATFORMS = {"flex16": ("flex", 16), "lite16": ("lite", 16),
             "cpu4": ("cpu", 4)}


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("key", list(GOLDEN))
def test_worker_run_matches_golden(key, backend, monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, backend)
    name, platform = key.split("-")
    engine, pes = PLATFORMS[platform]
    record = execute(make_spec(name, pes, engine=engine, quick=True))
    cycles, digest = GOLDEN[key]
    assert record.cycles == cycles, key
    assert record.digest[:len(digest)] == digest, key
