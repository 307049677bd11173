"""The park registry's counters, as a run reports them.

A run with parking on reports ``park.events_elided``, ``park.pe_parks``
and ``park.pe_wakes`` (perfbench reads the first two as
``arch.park_events_elided`` and ``arch.pe_parks``); a run with parking
off reports none of them.  Every parked PE is woken before the run
ends, so parks and wakes pair up.  The values are pinned: they count
host-side work only, and no change to how they are kept may move them.
"""

import pytest

from repro.harness.runners import run_cpu, run_flex, run_lite

PARK_KEYS = ("park.events_elided", "park.pe_parks", "park.pe_wakes")


@pytest.mark.parametrize("run,name,pes,expected", [
    pytest.param(run_flex, "fib", 16, (309, 114, 114), id="fib-flex16"),
    pytest.param(run_lite, "quicksort", 8, (49_570, 104, 104),
                 id="quicksort-lite8"),
    pytest.param(run_cpu, "fib", 8, (35, 33, 33), id="fib-cpu8"),
])
def test_park_counters(run, name, pes, expected):
    parked = run(name, pes, quick=True, park_idle_pes=True).counters
    assert tuple(parked[key] for key in PARK_KEYS) == expected
    assert parked["park.pe_parks"] == parked["park.pe_wakes"] > 0
    polled = run(name, pes, quick=True, park_idle_pes=False).counters
    assert not [key for key in polled if key.startswith("park.")]
