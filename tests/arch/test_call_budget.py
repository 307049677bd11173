"""Host-work ratchet: the Python calls one simulation makes.

cProfile counts every Python and builtin call.  For a fixed job the
count repeats exactly, run to run and under any ``PYTHONHASHSEED``, so
it measures host work without the timing noise that wall-clock claims
need ten paired benchmark runs to see through.  The budget is an upper
bound: a change that removes calls passes, and one that adds more than
1% fails, and must either remove them again or justify them and raise
the budget.

The count belongs to the interpreter it was measured on: how cProfile
hooks calls (3.12 moved it onto ``sys.monitoring``) and what the
dataclass and stdlib internals call change between minor versions.  So
the budget is pinned per CPython minor version, and the test skips on
an interpreter that has no pinned count.
"""

import cProfile
import gc
import sys

import pytest

from repro.exec.engines import simulate
from repro.exec.spec import make_spec

#: Calls of one quick fib job on flex16 (1,828 tasks), by CPython
#: ``(major, minor)``, when the budget was last lowered: after the
#: kernel's ``schedule`` inserted its record inline instead of calling
#: ``_insert`` (133,991 before; 140,063 before spawns stopped asking
#: the scheduling policy for a target, the op replay subscripted the
#: Timeout table instead of calling its ``get``, and an idle PE stopped
#: reading the victim-space size; 149,203 before each PE ran its tasks
#: in its own generator frame; 153,285 before the park counters became
#: plain ints; 178,172 before the task records were slotted).  3.11 was
#: measured on 3.11.7.
FIB_FLEX16_QUICK_CALLS = {(3, 11): 132_162}


def test_quick_fib_flex16_call_budget():
    pinned = FIB_FLEX16_QUICK_CALLS.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip(
            "no call budget pinned for Python "
            f"{sys.version_info[0]}.{sys.version_info[1]}: cProfile's "
            "count depends on the interpreter"
        )
    spec = make_spec("fib", 16, quick=True)
    simulate(spec)  # imports and lazy set-up stay out of the count
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()  # no finalizer of an earlier test runs inside the count
    profile = cProfile.Profile()
    try:
        profile.enable()
        result = simulate(spec)
        profile.disable()
    finally:
        if gc_was_enabled:
            gc.enable()
    assert result.tasks_executed == 1828
    # One raw entry per code object.  pstats keys its table by file,
    # line and name, so the generated ``__init__``s of different
    # dataclasses (all at ``<string>:2``) would overwrite one another.
    calls = sum(entry.callcount for entry in profile.getstats())
    budget = int(pinned * 1.01)
    assert calls <= budget, (
        f"quick fib on flex16 made {calls} Python calls, over the budget "
        f"of {budget} (1% above {pinned})"
    )
