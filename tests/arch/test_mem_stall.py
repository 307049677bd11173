"""A PE converts each memory stall to cycles as ``ClockDomain.ns_to_cycles``.

The memory models return the stall of an access in ns, and the PE turns
a positive one into whole cycles inline, with the period it bound from
its clock.  This pins that conversion to ``ns_to_cycles`` at every clock
the simulator configures, including stalls on and just off a whole
number of cycles, where the rounding tolerance decides.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.accelerator import FlexAccelerator
from repro.arch.config import flex_config
from repro.core.context import Worker
from repro.core.task import HOST_CONTINUATION, Task
from repro.sim import timing
from repro.sim.timing import ClockDomain

CLOCKS = [clock for clock in vars(timing).values()
          if isinstance(clock, ClockDomain)]


class ReadsWorker(Worker):
    """One task that issues ``count`` reads back to back."""

    name = "reads"
    task_types = ("READS",)

    def __init__(self, count):
        self.count = count

    def execute(self, task, ctx):
        for i in range(self.count):
            ctx.read(64 * i)
        ctx.send_arg(task.k, 0)


#: Stalls as (whole cycles, offset in ns): on a cycle boundary, within
#: the 1e-9 rounding tolerance of one, just past it, and anywhere.
STALLS = st.lists(
    st.tuples(st.integers(0, 400),
              st.sampled_from([0.0, 1e-12, -1e-12, 5e-10, -5e-10, 2e-9,
                               -2e-9, 0.25, 0.5])
              | st.floats(0.0, 1.0)),
    min_size=1, max_size=12)


def test_every_simulator_clock_is_covered():
    assert {clock.name for clock in CLOCKS} >= {
        "accel", "accel-l1", "cpu", "zynq-cpu", "zynq-fabric"}


@pytest.mark.parametrize("clock", CLOCKS, ids=lambda clock: clock.name)
@settings(max_examples=25, deadline=None)
@given(parts=STALLS)
def test_inline_stall_conversion_is_ns_to_cycles(clock, parts):
    stalls = [max(0.0, cycles * clock.period_ns + offset)
              for cycles, offset in parts]
    accel = FlexAccelerator(flex_config(1, memory="perfect", clock=clock),
                            ReadsWorker(len(stalls)))
    issued = []

    def access(port, addr, nbytes, is_write, now_ns):
        issued.append(accel.engine.now)
        return stalls[len(issued) - 1]

    pe = accel.pes[0]
    pe._mem_access = access
    accel.run(Task("READS", HOST_CONTINUATION, ()))
    expected = [clock.ns_to_cycles(stall) for stall in stalls]
    # Back-to-back reads: each one's stall is the gap to the next.
    assert [b - a for a, b in zip(issued, issued[1:])] == expected[:-1]
    assert pe.stats.mem_stall_cycles == sum(expected)
