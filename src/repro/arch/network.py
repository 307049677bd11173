"""On-chip network latency model (Section III-C).

The accelerator has two logical networks — the argument network and the
work-stealing network — both implemented as crossbars in the paper's
prototype.  The model charges a fixed hop latency per crossbar traversal:
intra-tile traffic stays on the tile buses and only pays the bus/P-Store
port cost, while inter-tile traffic crosses the crossbar in each direction.
Crossbars are non-blocking, so no contention is modelled (each input/output
pair has a dedicated path); serialisation effects at the P-Store are folded
into its access cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.arch.config import AcceleratorConfig


@dataclass
class NetworkStats:
    local_messages: int = 0
    remote_messages: int = 0
    steal_requests: int = 0

    @property
    def messages(self) -> int:
        return self.local_messages + self.remote_messages


class CrossbarNetwork:
    """Latency calculator for the argument and work-stealing networks."""

    #: Optional :class:`repro.obs.EventSink` (set by ``attach_telemetry``)
    #: recording one ``net-msg`` event per crossbar traversal.
    telemetry = None

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
        self.arg_stats = NetworkStats()
        self.steal_stats = NetworkStats()

    # -- argument / task network ----------------------------------------
    def arg_latency(self, from_tile: int, to_tile: int) -> int:
        """Cycles for an argument message between tiles (one way)."""
        if self.telemetry is not None:
            self.telemetry.net_msg("arg", from_tile, to_tile)
        if from_tile == to_tile:
            self.arg_stats.local_messages += 1
            return self.config.pstore_local_cycles
        self.arg_stats.remote_messages += 1
        return self.config.net_hop_cycles + self.config.pstore_local_cycles

    def task_return_latency(self, from_tile: int, to_tile: int) -> int:
        """Cycles to route a readied task back to its producer PE
        (the greedy-scheduling path through the argument/task router)."""
        if self.telemetry is not None:
            self.telemetry.net_msg("task", from_tile, to_tile)
        if from_tile == to_tile:
            self.arg_stats.local_messages += 1
            return self.config.queue_op_cycles
        self.arg_stats.remote_messages += 1
        return self.config.net_hop_cycles + self.config.queue_op_cycles

    # -- work stealing network -------------------------------------------
    def steal_request_latency(self, thief_tile: int, victim_tile: int) -> int:
        """Cycles for the steal request to reach the victim TMU."""
        self.steal_stats.steal_requests += 1
        if self.telemetry is not None:
            self.telemetry.net_msg("steal", thief_tile, victim_tile)
        if thief_tile == victim_tile:
            self.steal_stats.local_messages += 1
            return self.config.queue_op_cycles
        self.steal_stats.remote_messages += 1
        return self.config.net_hop_cycles

    def steal_response_latency(self, thief_tile: int, victim_tile: int) -> int:
        """Cycles for the response (task or NACK) to return to the thief,
        including the victim-side head dequeue."""
        if self.telemetry is not None:
            # The response travels victim -> thief.
            self.telemetry.net_msg("steal-resp", victim_tile, thief_tile)
        base = self.config.queue_op_cycles
        if thief_tile == victim_tile:
            self.steal_stats.local_messages += 1
            return base + self.config.queue_op_cycles
        self.steal_stats.remote_messages += 1
        return base + self.config.net_hop_cycles

    # -- bulk steal charges (the parked-PE replay) -------------------------
    def steal_latencies(self, local: bool) -> Tuple[int, int]:
        """``(request, response)`` cycles of a steal whose victim is on
        the thief's tile (``local``) or not, as the two calls above
        return them, counting nothing."""
        cfg = self.config
        if local:
            return cfg.queue_op_cycles, 2 * cfg.queue_op_cycles
        return cfg.net_hop_cycles, cfg.queue_op_cycles + cfg.net_hop_cycles

    def count_steal_messages(self, requests: int, local: int,
                             remote: int) -> None:
        """Count ``requests`` steal requests and ``local``/``remote``
        messages at once, as that many calls above would have."""
        stats = self.steal_stats
        stats.steal_requests += requests
        stats.local_messages += local
        stats.remote_messages += remote
