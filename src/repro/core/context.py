"""Worker execution contexts.

Workers interact with the architecture exclusively through the port-like
context API, mirroring the CPPWD worker interface of Figure 5:

=================  ====================================================
CPPWD port         Context method
=================  ====================================================
``task_in``        the ``task`` argument of :meth:`Worker.execute`
``task_out``       :meth:`WorkerContext.spawn`
``arg_out``        :meth:`WorkerContext.send_arg`
``cont_req/resp``  :meth:`WorkerContext.make_successor`
memory port        :meth:`WorkerContext.read` / :meth:`WorkerContext.write`
=================  ====================================================

:meth:`WorkerContext.compute` charges datapath cycles; it is how the
per-benchmark HLS cost models (loop pipelining, unrolling, parallel
candidate checks, ...) are expressed.

The context records every operation in order.  Execution engines replay the
recorded operations with timing: successor creation is a P-Store round trip,
spawns are task-queue pushes, argument sends traverse the argument network,
and memory reads/writes go through the cache hierarchy.  Successor entries
are *allocated* immediately during functional execution so the returned
continuation is valid for subsequent spawns, but join-counter updates only
happen when argument messages are delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.core.exceptions import ProtocolError
from repro.core.task import Continuation, Task

# Workers build one record per recorded operation, so the records are
# plain slotted classes: a frozen dataclass's ``__init__`` pays an
# ``object.__setattr__`` call per field.


@dataclass
class SpawnOp:
    """A child task pushed through ``task_out``."""

    __slots__ = ("task",)
    task: Task


@dataclass
class SendArgOp:
    """A return value sent through ``arg_out`` to a continuation slot."""

    __slots__ = ("cont", "value")
    cont: Continuation
    value: object


@dataclass
class SuccessorOp:
    """A ``cont_req``/``cont_resp`` round trip that created a pending task."""

    __slots__ = ("cont", "njoin")
    cont: Continuation
    njoin: int


@dataclass
class ComputeOp:
    """Datapath busy time, in accelerator (or CPU) cycles."""

    __slots__ = ("cycles",)
    cycles: int


@dataclass
class MemOp:
    """A memory access issued through the worker's memory port.

    ``scratchpad`` accesses hit worker-local BRAM buffers on the
    accelerator (absorbed by the pipelined datapath) but are ordinary
    cacheable accesses for the software baseline.
    """

    __slots__ = ("addr", "nbytes", "is_write", "scratchpad")
    addr: int
    nbytes: int
    is_write: bool
    scratchpad: bool


Op = Union[SpawnOp, SendArgOp, SuccessorOp, ComputeOp, MemOp]


class WorkerContext:
    """Recording context handed to :meth:`Worker.execute`.

    ``alloc_successor`` is supplied by the engine and must immediately
    allocate a pending-task entry, returning a continuation to its slot 0.
    """

    def __init__(
        self,
        pe_id: int,
        alloc_successor: Callable[[str, Continuation, int, Tuple], Continuation],
    ) -> None:
        self.pe_id = pe_id
        self._alloc_successor = alloc_successor
        self.ops: List[Op] = []
        #: Children spawned (``spawn`` calls).
        self.spawned = 0
        #: Successors created (``make_successor`` calls).
        self.successors = 0
        self.compute_cycles = 0

    # -- task_out ------------------------------------------------------
    def spawn(self, task: Task) -> None:
        """Spawn a child task (it may run concurrently with its parent)."""
        if not isinstance(task, Task):
            raise ProtocolError(f"spawn expects a Task, got {task!r}")
        self.ops.append(SpawnOp(task))
        self.spawned += 1

    # -- arg_out -------------------------------------------------------
    def send_arg(self, cont: Continuation, value) -> None:
        """Send a return value to the pending task ``cont`` points at."""
        self.ops.append(SendArgOp(cont, value))

    # -- cont_req / cont_resp ------------------------------------------
    def make_successor(
        self,
        task_type: str,
        k: Continuation,
        njoin: int,
        *static_args,
    ) -> Continuation:
        """Create a pending successor task and return a continuation to it.

        The successor inherits the current task's continuation ``k`` and
        becomes ready after receiving ``njoin`` arguments (slots
        ``0..njoin-1``); ``static_args`` are appended after the joined
        values.
        """
        cont = self._alloc_successor(task_type, k, njoin, static_args)
        self.ops.append(SuccessorOp(cont, njoin))
        self.successors += 1
        return cont

    # -- datapath ------------------------------------------------------
    def compute(self, cycles: int) -> None:
        """Charge ``cycles`` of datapath time to this task."""
        if cycles < 0:
            raise ProtocolError(f"negative compute cycles: {cycles}")
        if cycles:
            cycles = int(cycles)
            self.ops.append(ComputeOp(cycles))
            self.compute_cycles += cycles

    # -- memory port ---------------------------------------------------
    def read(self, addr: int, nbytes: int = 4, scratchpad: bool = False) -> None:
        """Record a read of ``nbytes`` starting at ``addr``."""
        self.ops.append(MemOp(int(addr), int(nbytes), False, scratchpad))

    def write(self, addr: int, nbytes: int = 4, scratchpad: bool = False) -> None:
        """Record a write of ``nbytes`` starting at ``addr``."""
        self.ops.append(MemOp(int(addr), int(nbytes), True, scratchpad))

    def read_block(self, addr: int, nbytes: int, scratchpad: bool = False) -> None:
        """Record a streaming read of a contiguous block."""
        self.read(addr, nbytes, scratchpad)

    def write_block(self, addr: int, nbytes: int, scratchpad: bool = False) -> None:
        """Record a streaming write of a contiguous block."""
        self.write(addr, nbytes, scratchpad)


class Worker:
    """Base class for application workers (the CPPWD function analogue).

    Subclasses set :attr:`task_types` and implement :meth:`execute`, which
    must be *functional*: it reads the task's arguments and the workload's
    data, performs the computation for exactly one task, and communicates
    only through the context.
    """

    #: Task type tags this worker can process (the hardware type field).
    task_types: Tuple[str, ...] = ()

    #: Short benchmark name for reports.
    name: str = "worker"

    def execute(self, task: Task, ctx: WorkerContext) -> None:
        raise NotImplementedError

    def check_task_type(self, task: Task) -> None:
        """Raise :class:`ProtocolError` for a task this worker cannot run."""
        if self.task_types and task.task_type not in self.task_types:
            raise ProtocolError(
                f"worker {self.name!r} cannot execute task type "
                f"{task.task_type!r} (supports {self.task_types})"
            )
