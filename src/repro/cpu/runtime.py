"""Software work-stealing runtime cost model (the Cilk Plus baseline).

The paper's software baseline is Intel Cilk Plus: the same task semantics
as the accelerator, but every scheduling operation is executed as
instructions on the cores.  The key quantitative contrast (Section V-D) is
that "a work stealing operation may require hundreds of instructions in
software, but only needs several cycles on the accelerator".

:class:`SoftwareRuntimeCosts` plays the role of the accelerator's crossbar
network object: it answers the same latency queries, but with
instruction-count-derived cycle costs — a steal pays the protocol cost of
locking the victim deque (THE protocol), resuming a stolen frame, and the
associated cache traffic; argument sends pay an atomic join-counter
decrement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.arch.network import NetworkStats


@dataclass(frozen=True)
class RuntimeCostModel:
    """Cycle costs of scheduling operations in the software runtime.

    Defaults approximate a tuned Cilk-style runtime on a 1 GHz four-issue
    OOO core: tens of cycles for deque and join bookkeeping, hundreds per
    steal.
    """

    steal_request_cycles: int = 200   # locate victim, lock deque (THE)
    steal_response_cycles: int = 250  # pop head, transfer + resume frame
    arg_send_cycles: int = 18         # write arg + atomic counter decrement
    ready_enqueue_cycles: int = 12    # push readied successor locally
    remote_penalty_cycles: int = 10   # cross-core cache-line ping-pong


class SoftwareRuntimeNetwork:
    """Drop-in replacement for the crossbar network in the CPU model."""

    def __init__(self, costs: RuntimeCostModel = RuntimeCostModel()) -> None:
        self.costs = costs
        self.arg_stats = NetworkStats()
        self.steal_stats = NetworkStats()

    def arg_latency(self, from_tile: int, to_tile: int) -> int:
        if from_tile == to_tile:
            self.arg_stats.local_messages += 1
            return self.costs.arg_send_cycles
        self.arg_stats.remote_messages += 1
        return self.costs.arg_send_cycles + self.costs.remote_penalty_cycles

    def task_return_latency(self, from_tile: int, to_tile: int) -> int:
        if from_tile == to_tile:
            self.arg_stats.local_messages += 1
            return self.costs.ready_enqueue_cycles
        self.arg_stats.remote_messages += 1
        return (self.costs.ready_enqueue_cycles
                + self.costs.remote_penalty_cycles)

    def steal_request_latency(self, thief_tile: int, victim_tile: int) -> int:
        self.steal_stats.steal_requests += 1
        self.steal_stats.remote_messages += 1
        return self.costs.steal_request_cycles

    def steal_response_latency(self, thief_tile: int, victim_tile: int) -> int:
        self.steal_stats.remote_messages += 1
        return self.costs.steal_response_cycles

    def steal_latencies(self, local: bool) -> Tuple[int, int]:
        """``(request, response)`` cycles of a steal, local or not."""
        return self.costs.steal_request_cycles, self.costs.steal_response_cycles

    def count_steal_messages(self, requests: int, local: int,
                             remote: int) -> None:
        """Bulk message counts; every software steal message is remote."""
        stats = self.steal_stats
        stats.steal_requests += requests
        stats.remote_messages += local + remote
