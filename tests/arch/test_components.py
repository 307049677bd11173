"""Tests for P-Store, network latency model, and interface block."""

import pytest

from repro.arch.config import AcceleratorConfig
from repro.arch.interface import InterfaceBlock
from repro.arch.network import CrossbarNetwork
from repro.arch.pstore import HardwarePStore
from repro.core.exceptions import ProtocolError, PStoreFullError
from repro.core.task import HOST_CONTINUATION, Task
from repro.resil.faults import FaultPlan, FaultSpec


class TestHardwarePStore:
    def test_alloc_deliver_ready(self):
        ps = HardwarePStore(tile_id=1, entries=8)
        cont = ps.alloc("SUM", HOST_CONTINUATION, 2, creator_pe=5)
        assert cont.owner == 1
        assert ps.deliver(cont.with_slot(0), 1, True) is None
        ready = ps.deliver(cont.with_slot(1), 2, False)
        assert ready.args == (1, 2)
        assert ps.is_empty

    def test_stats_local_remote(self):
        ps = HardwarePStore(0, 8)
        cont = ps.alloc("T", HOST_CONTINUATION, 2)
        ps.deliver(cont.with_slot(0), 0, True)
        ps.deliver(cont.with_slot(1), 0, False)
        assert ps.stats.local_deliveries == 1
        assert ps.stats.remote_deliveries == 1
        assert ps.stats.remote_fraction == 0.5
        assert ps.stats.tasks_readied == 1
        assert ps.stats.allocs == 1
        assert ps.stats.high_water == 1

    def test_capacity(self):
        ps = HardwarePStore(0, entries=1)
        ps.alloc("T", HOST_CONTINUATION, 1)
        with pytest.raises(PStoreFullError):
            ps.alloc("T", HOST_CONTINUATION, 1)

    def test_stale_delivery_rejected_before_count_and_poison(self):
        """A duplicate of the argument that readied an entry is rejected
        before it is counted or draws a fault decision, so a poison
        decision cannot turn it into a parity error."""
        ps = HardwarePStore(0, entries=8)
        cont = ps.alloc("T", HOST_CONTINUATION, 1)
        assert ps.deliver(cont, 7, True) is not None
        plan = FaultPlan(FaultSpec(pstore_poison_rate=1.0))
        ps.faults = plan
        with pytest.raises(ProtocolError, match="unallocated"):
            ps.deliver(cont, 7, False)
        assert ps.stats.deliveries == 1
        assert plan.total_injected == 0


class TestCrossbarNetwork:
    def setup_method(self):
        self.net = CrossbarNetwork(AcceleratorConfig(num_tiles=4))

    def test_local_arg_cheaper_than_remote(self):
        local = self.net.arg_latency(0, 0)
        remote = self.net.arg_latency(0, 1)
        assert local < remote
        assert self.net.arg_stats.local_messages == 1
        assert self.net.arg_stats.remote_messages == 1

    def test_local_steal_cheaper_than_remote(self):
        local = (self.net.steal_request_latency(0, 0)
                 + self.net.steal_response_latency(0, 0))
        remote = (self.net.steal_request_latency(0, 2)
                  + self.net.steal_response_latency(0, 2))
        assert local < remote
        assert self.net.steal_stats.steal_requests == 2

    def test_steal_roundtrip_is_several_cycles(self):
        # The paper's contrast: hardware steals cost single-digit-to-tens
        # of cycles, not hundreds like software.
        total = (self.net.steal_request_latency(0, 1)
                 + self.net.steal_response_latency(0, 1))
        assert total <= 20

    def test_task_return_latency(self):
        assert (self.net.task_return_latency(0, 0)
                < self.net.task_return_latency(0, 3))

    def test_response_path_counts_local_and_remote(self):
        self.net.steal_response_latency(0, 0)
        assert self.net.steal_stats.local_messages == 1
        assert self.net.steal_stats.remote_messages == 0
        self.net.steal_response_latency(0, 3)
        assert self.net.steal_stats.local_messages == 1
        assert self.net.steal_stats.remote_messages == 1
        # Responses are not new requests.
        assert self.net.steal_stats.steal_requests == 0

    def test_response_path_emits_net_msg(self):
        from types import SimpleNamespace

        from repro.obs.events import EventSink

        sink = EventSink(SimpleNamespace(now=7))
        self.net.telemetry = sink
        self.net.steal_response_latency(thief_tile=2, victim_tile=1)
        (event,) = sink.events
        assert event.kind == "net-msg"
        # The response travels victim -> thief.
        assert event.data == {"net": "steal-resp", "src": 1, "dst": 2}


class TestInterfaceBlock:
    def test_inject_and_steal(self):
        interface = InterfaceBlock()
        task = Task("T", HOST_CONTINUATION)
        interface.inject(task)
        assert interface.tasks_injected == 1
        assert interface.steal_head() is task
        assert interface.steal_head() is None

    def test_deliver_result(self):
        interface = InterfaceBlock()
        interface.deliver(HOST_CONTINUATION, 42)
        assert interface.host.value == 42
        assert interface.results_received == 1

    def test_deliver_rejects_non_host(self):
        from repro.core.task import Continuation

        interface = InterfaceBlock()
        with pytest.raises(ProtocolError):
            interface.deliver(Continuation(0, 0, 0), 1)
