"""Closed-system equivalence pin: the workload layer changes nothing.

The open-system refactor rebuilt ``FlexAccelerator.run`` on top of
``run_workload`` — a single root is now a one-job workload arriving at
t=0.  These tests pin that the new lifecycle is *bit-exact* with the
pre-refactor engine by replaying every golden configuration of
``tests/sched/test_golden_random.py`` through an explicit closed
:class:`~repro.workload.WorkloadSource` spec, on the kernel and on the
test suite's reference engine.

Any diff here means the arrival path (serialized write-port injection,
``submit`` without admission, completion stamping) perturbed the event
order of a closed run — fix the code, do not re-record the goldens.
"""

import pytest

from repro.exec import make_spec, simulate
from tests.kernel.reference import KERNELS, use_kernel
from tests.sched.test_golden_random import GOLDEN, steal_digest


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_single_job_workload_matches_golden(key, kernel, monkeypatch):
    use_kernel(monkeypatch, kernel)
    name, pes, park = key.rsplit("-", 2)
    spec = make_spec(
        name, int(pes), quick=True,
        workload=dict(kind="closed", num_jobs=1),
        steal_policy="random",
        park_idle_pes=(park == "park1"),
    )
    result = simulate(spec, telemetry=True)
    digest, num_events = steal_digest(result.telemetry)
    cycles, events, want_digest, attempts, hits, stolen = GOLDEN[key]
    assert result.cycles == cycles, key
    assert num_events == events, key
    assert digest == want_digest, key
    assert sum(s.steal_attempts for s in result.pe_stats) == attempts, key
    assert sum(s.steal_hits for s in result.pe_stats) == hits, key
    assert sum(s.tasks_stolen_from for s in result.pe_stats) == stolen, key
    # The workload layer's own view of the run: one job, arrived at 0,
    # injected after the host write port's offload latency, completed
    # before readback (cycles include readback, latency does not).
    assert result.jobs is not None and len(result.jobs) == 1
    job = result.jobs[0]
    assert job["arrival"] == 0
    assert job["injected"] == job["admitted"] > 0
    assert 0 < job["completed"] < result.cycles
    assert job["latency"] == job["completed"]
