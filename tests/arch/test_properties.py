"""Property tests on the timed FlexArch engine.

The timed engine must agree with the functional executors on *results*
for arbitrary fully-strict computations, regardless of PE count, memory
style, or scheduling-knob settings — timing may differ, semantics may
not.
"""

from hypothesis import given, settings, strategies as st

from repro.arch.accelerator import FlexAccelerator
from repro.arch.config import flex_config
from repro.core.executor import SerialExecutor
from repro.core.task import HOST_CONTINUATION, Task
from tests.core.test_space_bound import RandomTreeWorker, tree_root


def serial_value(seed):
    return SerialExecutor(RandomTreeWorker(seed, max_depth=10)).run(
        tree_root()
    ).value


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), num_pes=st.sampled_from([1, 2, 4, 8]))
def test_timed_engine_matches_serial_on_random_trees(seed, num_pes):
    expected = serial_value(seed)
    accel = FlexAccelerator(
        flex_config(num_pes, memory="perfect"),
        RandomTreeWorker(seed, max_depth=10),
    )
    result = accel.run(tree_root())
    assert result.value == expected
    assert result.tasks_executed > 0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    local_order=st.sampled_from(["lifo", "fifo"]),
    steal_end=st.sampled_from(["head", "tail"]),
    greedy=st.booleans(),
    central=st.booleans(),
)
def test_results_invariant_under_scheduling_knobs(seed, local_order,
                                                  steal_end, greedy,
                                                  central):
    expected = serial_value(seed)
    accel = FlexAccelerator(
        flex_config(
            4, memory="perfect",
            local_order=local_order, steal_end=steal_end,
            greedy=greedy, central_pstore=central,
            task_queue_entries=1 << 16, pstore_entries=1 << 16,
        ),
        RandomTreeWorker(seed, max_depth=10),
    )
    assert accel.run(tree_root()).value == expected


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16),
       memory=st.sampled_from(["perfect", "coherent", "stream", "dma"]))
def test_results_invariant_under_memory_styles(seed, memory):
    expected = serial_value(seed)
    accel = FlexAccelerator(
        flex_config(4, memory=memory),
        RandomTreeWorker(seed, max_depth=10),
    )
    assert accel.run(tree_root()).value == expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_task_accounting_balances(seed):
    """Every spawned/readied task executes exactly once: the engine's
    outstanding-work counter drains to zero and the task totals agree
    with an independent serial count."""
    serial = SerialExecutor(RandomTreeWorker(seed, max_depth=10))
    serial.run(tree_root())
    accel = FlexAccelerator(
        flex_config(4, memory="perfect"),
        RandomTreeWorker(seed, max_depth=10),
    )
    result = accel.run(tree_root())
    assert result.tasks_executed == serial.stats.tasks_executed
    assert accel.outstanding == 0
    assert accel.done


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), num_pes=st.sampled_from([2, 4, 8]))
def test_pstore_and_queues_drain(seed, num_pes):
    accel = FlexAccelerator(
        flex_config(num_pes, memory="perfect"),
        RandomTreeWorker(seed, max_depth=10),
    )
    accel.run(tree_root())
    for pstore in accel.pstores:
        assert pstore.is_empty
    for pe in accel.pes:
        assert pe.deque.is_empty
    assert accel.interface.deque.is_empty
