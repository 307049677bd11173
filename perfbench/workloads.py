"""The four benchmark workloads and how one pass of each runs.

Every workload is a closed loop at the host: one process submits one
batch through the public ``repro.exec`` API (the path ``repro
<experiment>`` takes) and waits for it.  A pass has two timed phases:

* **cold** — the batch simulates (no cache, except that
  ``fig7_campaign`` writes a fresh result cache as the CLI does);
* **warm** — the same batch is read back from a result cache with zero
  simulations, ``warm_reps`` times.

Why each workload exists is recorded in ``perfbench/README.md``.
``smoke=True`` selects reduced sizes for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Open-system stream: quick-size fib jobs on flex16 at ~70% of the
#: rate a flex16 drains (~1.3 jobs/kilocycle).
OPEN_RATE = 0.9
OPEN_JOBS = 128
OPEN_TENANTS = ({"name": "gold", "weight": 3},
                {"name": "bronze", "weight": 1})
OPEN_WINDOW = 8

TASK_BENCHMARKS = ("fib", "uts", "queens", "knapsack")
MEMORY_BENCHMARKS = ("quicksort", "bbgemm", "bfsqueue", "spmvcrs",
                     "stencil2d")

#: Fewest passes a timed run makes, whatever ``--seconds`` says.
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    """One workload: its batch, its pool size and its pass budget."""

    name: str
    #: Worker processes of the cold pass's :class:`JobRunner`.
    jobs: int
    #: Warm read-backs of the batch per pass (sized so the warm phase
    #: takes a few tenths of a second).
    warm_reps: int
    #: Nominal host seconds of one pass on a 2-core x86 box; a run of
    #: ``--seconds S`` makes ``max(MIN_PASSES, round(S / pass_s))``
    #: passes, so parent and change run identical pass sequences.
    pass_s: float
    #: ``specs(seed, smoke)`` builds a serial batch; ``None`` marks the
    #: fig7 campaign, whose harness builds its own specs.
    specs: Optional[Callable[[int, bool], List]] = None

    def passes(self, seconds: float) -> int:
        return max(MIN_PASSES, round(seconds / self.pass_s))


def _task_specs(seed: int, smoke: bool) -> List:
    from repro.exec import make_spec

    return [make_spec(name, 16, quick=smoke) for name in TASK_BENCHMARKS]


def _memory_specs(seed: int, smoke: bool) -> List:
    from repro.exec import make_spec

    return [make_spec(name, 16, engine=engine, quick=smoke)
            for name in MEMORY_BENCHMARKS for engine in ("flex", "lite")]


def open_workload(seed: int, num_jobs: int = OPEN_JOBS) -> dict:
    """The generated open-system workload spec for arrival ``seed``."""
    return dict(kind="stochastic", rate=OPEN_RATE, num_jobs=num_jobs,
                seed=seed, tenants=[dict(t) for t in OPEN_TENANTS],
                window=OPEN_WINDOW)


def _open_specs(seed: int, smoke: bool) -> List:
    from repro.exec import make_spec

    workload = open_workload(seed, 8 if smoke else OPEN_JOBS)
    return [make_spec("fib", 16, quick=True, workload=workload)]


def campaign_args(smoke: bool) -> Dict:
    """``run_fig7`` arguments: the paper's full campaign at quick size,
    or two benchmarks at 1-2 PEs for a smoke run."""
    if smoke:
        return dict(benchmarks=("quicksort", "queens"), pe_counts=(1, 2))
    return {}


WORKLOADS = {
    w.name: w for w in (
        Workload("flex16_tasks", jobs=1, warm_reps=200, pass_s=2.6,
                 specs=_task_specs),
        Workload("flex16_memory", jobs=1, warm_reps=80, pass_s=8.5,
                 specs=_memory_specs),
        Workload("fig7_campaign", jobs=2, warm_reps=8, pass_s=9.0),
        Workload("open_fib16", jobs=1, warm_reps=200, pass_s=8.0,
                 specs=_open_specs),
    )
}
