"""Unit and integration tests for the scheduling-policy layer."""

import pytest

from repro.arch.accelerator import FlexAccelerator
from repro.arch.config import AcceleratorConfig, flex_config, lite_config
from repro.arch.lite import LiteAccelerator, LiteProgram
from repro.core.context import Worker
from repro.core.exceptions import ConfigError
from repro.core.task import HOST_CONTINUATION, Task
from repro.harness.runners import run_flex, run_lite
from repro.sched import (
    POLICIES,
    POLICY_NAMES,
    HierarchicalPolicy,
    OccupancyPolicy,
    RandomPolicy,
    StealHalfPolicy,
    make_policy,
)
from repro.sched.stealhalf import MAX_BULK
from repro.workers.fib import FibWorker


def build_flex(pes=8, **overrides):
    overrides.setdefault("memory", "perfect")
    return FlexAccelerator(flex_config(pes, **overrides), FibWorker())


# -- registry and config validation -------------------------------------

def test_registry_contains_the_four_builtins():
    assert set(POLICY_NAMES) == {
        "random", "hierarchical", "occupancy", "steal_half"
    }
    assert POLICIES["random"] is RandomPolicy
    assert POLICIES["hierarchical"] is HierarchicalPolicy
    assert POLICIES["occupancy"] is OccupancyPolicy
    assert POLICIES["steal_half"] is StealHalfPolicy


def test_unknown_policy_rejected_at_config_time():
    with pytest.raises(ConfigError, match="steal policy"):
        AcceleratorConfig(steal_policy="bogus")


def test_make_policy_matches_config():
    for name in POLICY_NAMES:
        accel = build_flex(4, steal_policy=name)
        assert accel.sched_policy.name == name
        assert isinstance(accel.sched_policy, POLICIES[name])


# -- decision point 2: steal plan ---------------------------------------

def test_default_plan_is_head_one():
    accel = build_flex(4)
    assert accel.sched_policy.steal_plan(17) == (1, "head")


def test_steal_end_ablation_flows_through_the_plan():
    accel = build_flex(4, steal_end="tail")
    assert accel.sched_policy.steal_plan(17) == (1, "tail")


@pytest.mark.parametrize("qlen,want", [
    (0, 1), (1, 1), (2, 1), (3, 2), (5, 3), (7, 4),
    (2 * MAX_BULK, MAX_BULK), (1000, MAX_BULK),
])
def test_steal_half_plan_takes_half_capped(qlen, want):
    accel = build_flex(4, steal_policy="steal_half")
    assert accel.sched_policy.steal_plan(qlen) == (want, "head")


# -- fixed rules: owner pop end, spawn and round placement ----------------

def test_local_pop_binds_the_configured_end():
    """The PE pops the end ``local_order`` names: its newest task under
    LIFO, its oldest under FIFO."""
    for order, kept in (("lifo", 0), ("fifo", 1)):
        accel = build_flex(2, local_order=order)
        pe = accel.pes[0]
        tasks = [Task("FIB", HOST_CONTINUATION, (n,)) for n in range(2)]
        for task in tasks:
            pe.deque.push_tail(task)
        next(pe.run())  # one pop, then the pop/dispatch latency
        assert len(pe.deque) == 1
        assert pe.deque.pop_head() is tasks[kept]


def test_spawn_target_defaults_to_self_push():
    """A spawned child lands in its spawner's own queue: it leaves that
    queue by the spawner's local pop or by a steal from the spawner."""
    result = run_flex("fib", 4, quick=True, telemetry=True)
    events = result.telemetry.events
    spawner = {e.uid: e.pe for e in events if e.kind == "spawn"}
    left_from = {}
    for e in events:
        if e.kind == "dispatch":
            left_from[e.uid] = e.pe
        elif e.kind == "steal-hit":
            left_from[e.uid] = e.data["victim"]
    assert any(e.kind == "steal-hit" and e.uid in spawner for e in events)
    assert {uid: left_from.get(uid) for uid in spawner} == spawner


def test_lite_round_placement_is_round_robin():
    """The host places LiteArch round task ``i`` on PE ``i % num_pes``."""
    class WherePE(Worker):
        task_types = ("WHERE",)

        def execute(self, task, ctx):
            ctx.send_arg(task.k, ctx.pe_id)

    class OneRound(LiteProgram):
        def rounds(self):
            self.placed = yield [Task("WHERE", self.host_k(i))
                                 for i in range(6)]

    program = OneRound()
    LiteAccelerator(lite_config(4, memory="perfect"), WherePE()).run(program)
    assert program.placed == [0, 1, 2, 3, 0, 1]


# -- hierarchical victim selection --------------------------------------

def test_hop_table_is_zero_on_the_thiefs_tile_only():
    accel = build_flex(8)  # 2 tiles of 4, then the IF block (id 8)
    assert accel.victim_tiles == [0, 0, 0, 0, 1, 1, 1, 1, -1]
    assert accel.pes[1].sched.hops == [0, 0, 0, 0, 1, 1, 1, 1, 1]
    assert accel.pes[6].sched.hops == [1, 1, 1, 1, 0, 0, 0, 0, 1]


def test_hierarchical_partitions_victims_by_tile():
    accel = build_flex(8, steal_policy="hierarchical")  # 2 tiles of 4
    sched = accel.pes[1].sched
    assert sched.local == [0, 2, 3]
    # Other tile's PEs plus the IF block (id 8) are remote.
    assert sched.remote == [4, 5, 6, 7, 8]


def test_hierarchical_escalates_after_a_local_sweep_of_misses():
    accel = build_flex(8, steal_policy="hierarchical")
    sched = accel.pes[0].sched
    picks = []
    for _ in range(len(sched.local)):
        victim = sched.pick_victim()
        picks.append(victim)
        sched.note_steal(victim, 0, 0)  # miss
    assert all(v in sched.local for v in picks)
    # A full sweep of local misses escalates to the remote tier...
    remote = sched.pick_victim()
    assert remote in sched.remote
    # ...and a remote miss resets the escalation back to local.
    sched.note_steal(remote, 0, 0)
    assert sched.pick_victim() in sched.local


def test_hierarchical_hit_resets_escalation():
    accel = build_flex(8, steal_policy="hierarchical")
    sched = accel.pes[0].sched
    for _ in range(len(sched.local) - 1):
        sched.note_steal(sched.pick_victim(), 0, 0)
    victim = sched.pick_victim()
    sched.note_steal(victim, 1, 3)  # hit
    assert sched.local_misses == 0


def test_hierarchical_single_tile_probes_if_block_for_roots():
    accel = build_flex(4, steal_policy="hierarchical")  # one tile
    sched = accel.pes[0].sched
    for _ in range(len(sched.local)):
        sched.note_steal(sched.pick_victim(), 0, 0)
    # Local tier exhausted: the only remote victim is the IF block.
    assert sched.pick_victim() == accel.config.num_pes


# -- occupancy hints -----------------------------------------------------

def test_occupancy_steers_to_the_deepest_known_queue():
    accel = build_flex(8, steal_policy="occupancy")
    sched = accel.pes[0].sched
    sched.note_steal(3, 1, 2)
    sched.note_steal(6, 1, 7)
    assert sched.pick_victim() == 6


def test_occupancy_hints_decay_to_lfsr_fallback():
    accel = build_flex(8, steal_policy="occupancy")
    sched = accel.pes[0].sched
    sched.note_steal(5, 1, 4)
    sched.note_steal(5, 0, 0)  # later probe found it empty
    victim = sched.pick_victim()
    assert victim != 0  # never probes itself
    assert 0 <= victim < len(accel.victim_tiles)


def test_occupancy_tie_break_prefers_fewer_hops_then_lower_id():
    accel = build_flex(8, steal_policy="occupancy")
    sched = accel.pes[0].sched  # tile 0
    sched.note_steal(6, 1, 5)   # tile 1: one hop
    sched.note_steal(2, 1, 5)   # tile 0: local
    assert sched.pick_victim() == 2
    sched.note_steal(1, 1, 5)   # also local, lower id
    assert sched.pick_victim() == 1


# -- end-to-end: every policy computes correct results -------------------

@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("name,pes", [("fib", 4), ("uts", 16)])
def test_policies_verify_and_are_deterministic(policy, name, pes):
    a = run_flex(name, pes, quick=True, steal_policy=policy)
    b = run_flex(name, pes, quick=True, steal_policy=policy)
    assert a.cycles == b.cycles
    assert a.value == b.value
    assert ([(s.steal_attempts, s.steal_hits, s.steal_hits_remote)
             for s in a.pe_stats]
            == [(s.steal_attempts, s.steal_hits, s.steal_hits_remote)
                for s in b.pe_stats])


def test_steal_half_transfers_bulk():
    result = run_flex("quicksort", 4, quick=True,
                      steal_policy="steal_half", telemetry=True)
    hits = [e for e in result.telemetry.events if e.kind == "steal-hit"]
    counts = [e.data.get("count", 1) for e in hits]
    assert any(c > 1 for c in counts)
    assert all(1 <= c <= MAX_BULK for c in counts)
    # Tasks transferred from PE victims exceeds the hit count exactly by
    # the bulk surplus (IF-block root fetches are always head-one and do
    # not count toward any PE's tasks_stolen_from).
    if_block = len(result.pe_stats)  # IF block id == num_pes
    pe_counts = [e.data.get("count", 1) for e in hits
                 if e.data["victim"] != if_block]
    assert sum(pe_counts) == sum(
        s.tasks_stolen_from for s in result.pe_stats)


def test_remote_steal_counter_is_a_subset_of_hits():
    result = run_flex("uts", 16, quick=True, steal_policy="random")
    for s in result.pe_stats:
        assert 0 <= s.steal_hits_remote <= s.steal_hits
    assert result.remote_steals > 0  # 4 tiles: some steals cross


def test_single_pe_reports_zero_steal_attempts():
    """The steal-bookkeeping fix: a 1-PE machine only performs IF-block
    root fetches, which are interface protocol, not load balancing."""
    result = run_flex("fib", 1, quick=True)
    (stats,) = result.pe_stats
    assert stats.steal_attempts == 0
    assert stats.steal_hits == 0
    assert stats.steal_hits_remote == 0
    assert result.tasks_executed > 0


def test_lite_runs_under_any_policy():
    base = run_lite("quicksort", 8, quick=True)
    for policy in POLICY_NAMES:
        r = run_lite("quicksort", 8, quick=True, steal_policy=policy)
        # LiteArch has no stealing, so no policy decision applies:
        # rounds are placed round-robin.
        assert r.cycles == base.cycles
        assert r.value == base.value


def test_policy_telemetry_dimensions():
    result = run_flex("uts", 8, quick=True, steal_policy="hierarchical",
                      telemetry=True)
    assert result.telemetry.policy == "hierarchical"
    reqs = [e for e in result.telemetry.events if e.kind == "steal-req"]
    assert reqs and all(e.data.get("hops") in (0, 1) for e in reqs)
    local = sum(1 for e in reqs if e.data["hops"] == 0)
    assert local > 0  # hierarchical probes its own tile first
