"""Whole-telemetry-trace pins: the simulated timeline, event by event.

Each case runs quick-size work on FlexArch with telemetry attached and
pins two things: end-to-end ``cycles`` and a digest of the complete
trace.  The digest covers every ``sorted_events()`` entry ``(ts, kind,
pe, uid, data)``, with ``data`` serialised with sorted keys, and every
slot of every ``telemetry.tasks`` record.  Any change to event order,
timing, steal choices, P-Store traffic, parking replay or task
lifecycle moves it.

The cases are fib, quicksort, uts and queens at 1/4/16 PEs with parking
off and on; one fault plan with every recovery knob on; and one open
workload with stochastic arrivals, two tenants and an admission window.
The constants were captured while the simulator still had two kernel
backends, the fast engine and the reference engine that
``tests/kernel/reference.py`` keeps, and both produced them.

Any diff here means the simulated execution drifted — fix the code, do
not re-record the pins.
"""

import hashlib
import json

import pytest

from repro.harness.runners import run_flex
from repro.obs.events import TaskRecord
from repro.resil.faults import FaultSpec

#: "benchmark-pes-park{0,1}" -> (cycles, trace digest prefix), quick sizes.
GOLDEN = {
    "fib-1-park0": (11656, "937d5f80c4c6a465"),
    "fib-1-park1": (11656, "a2fe8119bce84421"),
    "fib-4-park0": (3154, "0c13f2be6b7682ea"),
    "fib-4-park1": (3154, "1f9e4576f6a77c60"),
    "fib-16-park0": (1117, "1dccc5e909a569ad"),
    "fib-16-park1": (1117, "925300438cf5bb29"),
    "quicksort-1-park0": (58159, "cec81990ea48814a"),
    "quicksort-1-park1": (58159, "c69ee341f2213ba5"),
    "quicksort-4-park0": (19272, "57eb9b2a5622f989"),
    "quicksort-4-park1": (19272, "10fb2fa8102a95a3"),
    "quicksort-16-park0": (14660, "0627d5f5621fec18"),
    "quicksort-16-park1": (14660, "d3d50b005a2f79ed"),
    "uts-1-park0": (11428, "799a2a4630977666"),
    "uts-1-park1": (11428, "d5f8001e577a37a5"),
    "uts-4-park0": (3339, "3cd89dc84332cd51"),
    "uts-4-park1": (3339, "31f4d445e946814b"),
    "uts-16-park0": (1866, "905fbdcb8f1ce576"),
    "uts-16-park1": (1866, "dc472d1e18c9a84c"),
    "queens-1-park0": (23108, "2274c17ab88d93e8"),
    "queens-1-park1": (23108, "3f377293abbe2f1a"),
    "queens-4-park0": (5972, "fb2e0e0ed24915a6"),
    "queens-4-park1": (5972, "002196a928b79b78"),
    "queens-16-park0": (1812, "c724b1d9b6cccae2"),
    "queens-16-park1": (1812, "5ff33f78a3bf30ba"),
}

FAULT_KNOBS = dict(park_idle_pes=False, steal_retry=True,
                   arg_retransmit=True, pe_fault_retry=True,
                   pstore_ecc=True)

#: Quick fib on flex4 under a 1% uniform fault plan with every recovery
#: knob on: (cycles, trace digest prefix, faults injected).
FAULTED = (3276, "3be474953d55773f", 54)

OPEN_WORKLOAD = dict(kind="stochastic", rate=2.0, num_jobs=8,
                     tenants=[dict(name="gold", weight=3),
                              dict(name="bronze", weight=1)],
                     window=2)

#: Eight stochastic fib jobs on flex4 with parking on:
#: (cycles, trace digest prefix).
OPEN = (24123, "83f733f49a0e123a")


def trace_digest(sink):
    """Digest of every event and every task record of a telemetry sink."""
    h = hashlib.sha256()
    for e in sink.sorted_events():
        data = json.dumps(e.data, sort_keys=True)
        h.update(repr((e.ts, e.kind, e.pe, e.uid, data)).encode())
    for t in sink.tasks:
        h.update(repr(tuple(getattr(t, s)
                            for s in TaskRecord.__slots__)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("park", [False, True], ids=["park0", "park1"])
@pytest.mark.parametrize("pes", [1, 4, 16])
@pytest.mark.parametrize("name", ["fib", "quicksort", "uts", "queens"])
def test_trace_matches_pin(name, pes, park):
    result = run_flex(name, pes, quick=True, telemetry=True,
                      park_idle_pes=park)
    key = f"{name}-{pes}-park{int(park)}"
    assert (result.cycles, trace_digest(result.telemetry)) == GOLDEN[key]


def test_faulted_trace_matches_pin():
    result = run_flex("fib", 4, quick=True, telemetry=True,
                      faults=FaultSpec.uniform(0.01), **FAULT_KNOBS)
    injected = result.counters["faults.injected"]
    assert (result.cycles, trace_digest(result.telemetry),
            injected) == FAULTED
    assert result.counters["faults.recovered"] == injected


def test_open_workload_trace_matches_pin():
    result = run_flex("fib", 4, quick=True, telemetry=True,
                      park_idle_pes=True, workload=OPEN_WORKLOAD)
    assert len(result.jobs) == OPEN_WORKLOAD["num_jobs"]
    assert (result.cycles, trace_digest(result.telemetry)) == OPEN
