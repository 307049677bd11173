"""Host-speed scaling and the pass checks."""

import pytest

from perfbench import speedref
from perfbench.metrics import at_nominal_speed, checks, end_to_end


def test_host_times_are_divided_by_the_pass_factor():
    nominal = speedref.NOMINAL_S
    # The reference kernel ran at half speed in this interpreter.
    p = {"ref_s": [2 * nominal, 2 * nominal, 3 * nominal], "setup_s": 0.4,
         "cold_s": 4.0, "warm_s": 1.0, "warm_rep_s": [0.5, 0.5],
         "jobs": [{"label": "a", "tasks": 10, "run_s": 4.0,
                   "queue_s": 0.0}],
         "layers": {"mem.access": (2.0, 7)}}
    q = at_nominal_speed(p)
    assert (q["setup_s"], q["cold_s"], q["warm_s"]) == (0.2, 2.0, 0.5)
    assert q["warm_rep_s"] == [0.25, 0.25]
    assert q["jobs"][0]["run_s"] == 2.0 and q["jobs"][0]["tasks"] == 10
    assert q["layers"] == {"mem.access": (1.0, 7)}
    probe = at_nominal_speed({"ref_s": [nominal / 2], "setup_s": 0.3})
    assert probe["setup_s"] == pytest.approx(0.6)


def test_end_to_end_uses_per_job_medians():
    def one(run_s):
        return {"jobs": [{"label": "a", "tasks": 100, "run_s": run_s}],
                "cold_s": run_s, "warm_batch": 1, "warm_rep_s": [0.01],
                "rss_mb": 40.0}

    values = end_to_end([one(1.0), one(9.0), one(2.0)], [0.3, 0.2, 0.4])
    assert values["sim_tasks_per_s"] == pytest.approx(50.0)
    assert values["job_p50_s"] == values["job_p90_s"] == 2.0
    assert values["setup_s"] == 0.3


def test_reference_kernel_is_deterministic():
    assert speedref.kernel(2000) == speedref.kernel(2000)
    assert len(speedref.sample(2)) == 2


def _pass(digests, failed=(), warm_served=2, warm_simulated=0):
    return {"jobs": [{"label": label, "digest": d}
                     for label, d in digests.items()],
            "failed_jobs": list(failed), "warm_served": warm_served,
            "warm_simulated": warm_simulated, "warm_mismatched": 0}


def test_checks_count_every_kind_of_failure():
    first = _pass({"a": "1", "b": "2"})
    assert checks([first, _pass({"a": "1", "b": "2"})]) == (8, 0)
    # A pass whose record differs from the first pass's.
    assert checks([first, _pass({"a": "1", "b": "X"})]) == (8, 1)
    # A job that failed outright, and a warm read-back that simulated.
    assert checks([first, _pass({"a": "1"}, failed=["b: boom"],
                                warm_simulated=1)]) == (8, 3)
