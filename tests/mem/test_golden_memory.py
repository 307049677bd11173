"""Golden pinning of the coherent memory model on memory-bound runs.

The scheduling goldens (``tests/sched/test_golden_random.py``) cover
fib/quicksort/uts on FlexArch, whose memory traffic is light.  This
suite pins the end-to-end ``cycles`` and the full ``mem_summary`` of the
memory-bound quick-size benchmarks on every engine that drives the
Table III hierarchy: FlexArch and LiteArch at 16 PEs, the 4-core CPU
baseline, and FlexArch at 16 PEs with a 4 kB L1, small enough that L1
evictions and dirty writebacks are frequent.

Any diff here means the memory model (or the timing it feeds) drifted —
fix the code, do not re-record the goldens.
"""

import pytest

from repro.harness.runners import run_cpu, run_flex, run_lite

BENCHMARKS = ["quicksort", "bbgemm", "bfsqueue", "spmvcrs", "stencil2d"]

#: platform -> (runner, PEs/cores, config overrides).
PLATFORMS = {
    "flex16": (run_flex, 16, {}),
    "lite16": (run_lite, 16, {}),
    "cpu4": (run_cpu, 4, {}),
    "flex16-l1_4k": (run_flex, 16, {"l1_size": 4096}),
}

COUNTS = ("l1_hits", "l1_misses", "l2_hits", "l2_misses", "c2c_transfers",
          "dram_requests", "dram_bytes")

#: "benchmark-platform" -> (cycles, *COUNTS), quick sizes.
GOLDEN = {
    "quicksort-flex16": (14660, 3799, 949, 1, 0, 948, 1, 64),
    "bbgemm-flex16": (5408, 4875, 4341, 4341, 0, 0, 0, 0),
    "bfsqueue-flex16": (6673, 9361, 2844, 1267, 426, 1151, 1176, 75264),
    "spmvcrs-flex16": (3385, 11461, 422, 280, 142, 0, 2271, 145344),
    "stencil2d-flex16": (1090, 696, 816, 816, 0, 0, 0, 0),
    "quicksort-lite16": (17249, 3708, 1040, 1, 0, 1039, 1, 64),
    "bbgemm-lite16": (4893, 5792, 3424, 3424, 0, 0, 0, 0),
    "bfsqueue-lite16": (6954, 9603, 2602, 1238, 437, 927, 1176, 75264),
    "spmvcrs-lite16": (3494, 11467, 416, 266, 150, 0, 2271, 145344),
    "stencil2d-lite16": (978, 769, 647, 647, 0, 0, 0, 0),
    "quicksort-cpu4": (92966, 4224, 524, 1, 0, 523, 1, 64),
    "bbgemm-cpu4": (146789, 5337, 3879, 3879, 0, 0, 0, 0),
    "bfsqueue-cpu4": (44045, 9405, 2800, 1288, 430, 1082, 1176, 75264),
    "spmvcrs-cpu4": (20634, 11499, 384, 272, 112, 0, 2271, 145344),
    "stencil2d-cpu4": (14045, 895, 617, 617, 0, 0, 0, 0),
    "quicksort-flex16-l1_4k": (14696, 3087, 1661, 813, 0, 848, 1, 64),
    "bbgemm-flex16-l1_4k": (5228, 6057, 3159, 3159, 0, 0, 0, 0),
    "bfsqueue-flex16-l1_4k": (6700, 8761, 3444, 1770, 423, 1251, 1176,
                              75264),
    "spmvcrs-flex16-l1_4k": (3853, 7595, 4288, 4137, 151, 0, 2271, 145344),
    "stencil2d-flex16-l1_4k": (1097, 848, 664, 664, 0, 0, 0, 0),
}


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("platform", list(PLATFORMS))
@pytest.mark.parametrize("name", BENCHMARKS)
def test_memory_bound_run_matches_golden(name, platform, backend):
    runner, pes, overrides = PLATFORMS[platform]
    result = runner(name, pes, quick=True, backend=backend, **overrides)
    key = f"{name}-{platform}"
    cycles, *counts = GOLDEN[key]
    expected = dict(zip(COUNTS, counts))
    hits, misses = expected["l1_hits"], expected["l1_misses"]
    expected["l1_miss_rate"] = misses / (hits + misses)
    assert result.cycles == cycles, key
    assert result.mem_summary == expected, key
