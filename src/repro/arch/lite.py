"""LiteArch engine: static data-parallel execution (Section III-B).

A LiteArch tile has no P-Store, no argument/task router, and no work
stealing; its TMUs cannot steal.  The host CPU drives execution in rounds:
it splits an index range into chunks (``static_chunks``), statically
assigns one chunk task per PE slot, waits for all results, and — for the
"multi-round" ports of dynamic algorithms (nw, quicksort, queens, knapsack)
— constructs the next round from the returned values.

Programs implement :class:`LiteProgram`: a generator of task rounds that
receives each round's results, mirroring how the paper rewrote fork-join
benchmarks level-by-level onto parallel-for.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.arch.accelerator import DEFAULT_MAX_CYCLES, BaseAccelerator
from repro.arch.config import AcceleratorConfig
from repro.arch.result import RunResult
from repro.core.context import Worker
from repro.core.exceptions import ConfigError, ProtocolError
from repro.core.task import HOST, Continuation, Task
from repro.kernel import Timeout


class LiteProgram:
    """Host-side driver of a LiteArch computation.

    Subclasses implement :meth:`rounds`, a generator that yields lists of
    leaf tasks and receives the list of the round's result values (in task
    order) back at each ``yield``.  After the generator finishes,
    :meth:`result` returns the program's final answer.
    """

    #: Short name for reports.
    name = "lite-program"

    def rounds(self) -> Generator[List[Task], List, None]:
        raise NotImplementedError

    def result(self):
        """Final result; by default the value of the last round's task 0."""
        return None

    @staticmethod
    def host_k(index: int, round_id: int = 0) -> Continuation:
        """Continuation for leaf ``index`` of a round (host slot)."""
        return Continuation(HOST, round_id, index)


def chunk_frontier(frontier: Sequence, num_pes: int,
                   chunks_per_pe: int = 4, max_chunk: int = 64,
                   min_chunk: int = 8) -> List:
    """Split a BFS frontier into per-task chunks for a LiteArch round.

    The host aims for a few chunks per PE (static distribution has no load
    balancing, so more chunks smooth out cost variance) while bounding the
    chunk size: small enough that task messages stay small, large enough
    that per-task dispatch overhead does not dominate thin rounds.
    """
    if not frontier:
        return []
    target = max(1, len(frontier) // max(1, num_pes * chunks_per_pe))
    chunk = max(min_chunk, min(max_chunk, target))
    return [tuple(frontier[i:i + chunk])
            for i in range(0, len(frontier), chunk)]


class LiteAccelerator(BaseAccelerator):
    """The LiteArch engine: host-driven rounds over non-stealing PEs."""

    allow_dynamic = False

    def __init__(self, config: AcceleratorConfig, worker: Worker) -> None:
        if config.is_flex:
            raise ConfigError("LiteAccelerator requires arch='lite'")
        super().__init__(config, worker)
        self._round_values: dict = {}
        self._round_remaining = 0
        self._round_event = None
        self.rounds_executed = 0

    # -- services used by PEs ---------------------------------------------
    @property
    def victim_tiles(self) -> List[int]:
        raise ProtocolError("LiteArch has no work-stealing network")

    def steal_from(self, victim_id: int) -> Optional[Task]:
        raise ProtocolError("LiteArch has no work-stealing network")

    def alloc_successor(self, pe_id, tile, task_type, k, njoin, static_args):
        raise ProtocolError("LiteArch PEs cannot create pending tasks")

    def send_arg(self, pe_id: int, from_tile: int, cont: Continuation,
                 value) -> None:
        """LiteArch results go back to the host over the task network."""
        if not cont.is_host:
            raise ProtocolError(
                "LiteArch workers may only send results to the host"
            )
        self.add_work()
        self.engine.schedule(self.config.net_hop_cycles, self._deliver_host,
                             cont, value)

    def _deliver_host(self, cont: Continuation, value) -> None:
        if self.telemetry is not None:
            self.telemetry.host_result(cont)
        if cont.slot in self._round_values or self._round_remaining <= 0:
            raise ProtocolError(
                f"duplicate result for round task {cont.slot} "
                "(a LiteArch task must send exactly one value)"
            )
        self._round_values[cont.slot] = value
        self._round_remaining -= 1
        self.sub_work()
        if self._round_remaining == 0 and self._round_event is not None:
            event, self._round_event = self._round_event, None
            event.trigger()

    # -- host process -------------------------------------------------------
    def _host_loop(self, program: LiteProgram) -> Generator:
        cfg = self.config
        gen = program.rounds()
        values: Optional[List] = None
        while True:
            try:
                tasks = gen.send(values) if values is not None else next(gen)
            except StopIteration:
                break
            if not tasks:
                values = []
                continue
            self.rounds_executed += 1
            # Host-side split/dispatch work, at CPU speed.
            overhead = (cfg.lite_round_overhead_cycles
                        + cfg.lite_per_task_host_cycles * len(tasks))
            yield Timeout(cfg.clock.convert_cycles(overhead, cfg.cpu_clock))
            self._round_values = {}
            self._round_remaining = len(tasks)
            self._round_event = self.engine.event(
                f"round{self.rounds_executed}"
            )
            for i, task in enumerate(tasks):
                # Static round-robin assignment (Section III-B).
                self.add_work()
                self.engine.schedule(cfg.net_hop_cycles, self._enqueue_ready,
                                     i % cfg.num_pes, task)
            yield self._round_event
            values = [self._round_values.get(i) for i in range(len(tasks))]
        self._set_done()

    # ------------------------------------------------------------------
    def run(
        self,
        program: LiteProgram,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        label: str = "",
    ) -> RunResult:
        """Drive ``program`` to completion and return timing results."""
        # Keep the work counter positive for the lifetime of the host
        # process so a drained round does not terminate the run early.
        self.add_work()
        host = self.engine.process(self._host_loop(program), name="host")

        def _host_finished() -> None:
            self.sub_work()

        self.engine.process(self._join_host(host, _host_finished),
                            name="host-join")
        self._start_processes()
        result = self._finish(max_cycles, label or f"lite{self.config.num_pes}")
        result.host.slots.setdefault(0, program.result())
        return result

    @staticmethod
    def _join_host(host, callback) -> Generator:
        yield host
        callback()
