"""The random policy's flat steal replay charges what the base loop does.

``RandomScheduler.replay_misses`` replaces ``PEScheduler.replay_misses``
(one ``pick_victim`` frame, one ``note_steal`` and two network calls per
replayed attempt) with one LFSR draw per attempt and bulk network
counts.  Both must leave the same LFSR state, attempt count, steal
network counters, resume point and event-time chain, on the crossbar and
on the software runtime's network, for any victim space, thief, anchor
and waking event — including wake keys that land exactly on a virtual
loop-top or victim probe.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.arch.config import flex_config
from repro.arch.network import CrossbarNetwork
from repro.core.lfsr import LFSR16
from repro.cpu.runtime import RuntimeCostModel, SoftwareRuntimeNetwork
from repro.sched.base import PEScheduler
from repro.sched.random import RandomScheduler

#: Off-tile id standing in for the IF block's tile.
IF_TILE = 9


def make_scheduler(num_victims, pe_id, tile_id, seed):
    """A random-policy scheduler outside an accelerator."""
    accel = SimpleNamespace(engine=SimpleNamespace(lfsr=LFSR16),
                            config=SimpleNamespace(num_pes=num_victims),
                            num_victims=num_victims)
    pe = SimpleNamespace(accel=accel, pe_id=pe_id, tile_id=tile_id)
    sched = RandomScheduler(None, pe)
    sched.lfsr = LFSR16(seed)
    return sched


def make_network(kind, queue_op, hop, request, response):
    if kind == "crossbar":
        return CrossbarNetwork(flex_config(16, queue_op_cycles=queue_op,
                                           net_hop_cycles=hop))
    return SoftwareRuntimeNetwork(RuntimeCostModel(
        steal_request_cycles=request, steal_response_cycles=response))


def timeline_keys(times, start):
    """Every engine-key triple the polling loop would have held along
    ``times`` (a replay's forward event times): each loop-top ``(f, s,
    p)`` and each victim probe ``(probe, f, s)``."""
    keys = [start]
    f, s, p = start
    for at in range(1, len(times) - 2, 3):
        probe, nack, top = times[at:at + 3]
        keys.append((probe, f, s))
        f, s, p = top, nack, probe
        keys.append((f, s, p))
    return keys


@st.composite
def replay_cases(draw):
    num_victims = draw(st.integers(2, 33))  # 1-32 victims besides self
    tiles = draw(st.lists(st.sampled_from([0, 1, 2, 3, IF_TILE]),
                          min_size=num_victims, max_size=num_victims))
    return dict(
        num_victims=num_victims,
        victim_tiles=tiles,
        pe_id=draw(st.integers(0, num_victims - 1)),
        thief_tile=draw(st.integers(0, 3)),
        seed=draw(st.integers(1, 0xFFFF)),
        network=draw(st.sampled_from(["crossbar", "software"])),
        queue_op=draw(st.integers(1, 4)),
        hop=draw(st.integers(1, 6)),
        request=draw(st.integers(1, 300)),
        response=draw(st.integers(1, 300)),
        backoff=draw(st.integers(0, 8)),
        start=draw(st.tuples(st.integers(0, 10**6), st.integers(0, 50),
                             st.integers(0, 50))),
        horizon=draw(st.integers(0, 3000)),
        key_pick=draw(st.integers(0, 10**6)),
        nudge=draw(st.sampled_from([None, (0, 0, 0), (0, 0, -1), (0, 0, 1),
                                    (0, -1, 0), (0, 1, 0), (1, 0, 0),
                                    (-1, 0, 0)])),
    )


def run_replay(case, key, replay, tel=None):
    sched = make_scheduler(case["num_victims"], case["pe_id"],
                           case["thief_tile"], case["seed"])
    net = make_network(case["network"], case["queue_op"], case["hop"],
                       case["request"], case["response"])
    resume, attempts, times = replay(sched, net, case["victim_tiles"],
                                     case["backoff"], case["start"], key,
                                     tel)
    stats = net.steal_stats
    return dict(resume=resume, attempts=attempts, times=times,
                lfsr=sched.lfsr.state,
                net=(stats.steal_requests, stats.local_messages,
                     stats.remote_messages))


def wake_key(case):
    """A waking event: a plain horizon past the anchor, or (``nudge``) a
    key on or next to one of the polling timeline's own events."""
    start = case["start"]
    horizon = (start[0] + case["horizon"], 0, 0)
    if case["nudge"] is None:
        return horizon
    probe = run_replay(case, horizon, PEScheduler.replay_misses)
    keys = timeline_keys(probe["times"], start)
    base = keys[case["key_pick"] % len(keys)]
    return tuple(a + b for a, b in zip(base, case["nudge"]))


@settings(max_examples=400, deadline=None)
@given(replay_cases())
def test_flat_replay_matches_base_loop(case):
    key = wake_key(case)
    base = run_replay(case, key, PEScheduler.replay_misses)
    flat = run_replay(case, key, RandomScheduler.replay_misses)
    assert flat == base


class RecordingSink:
    """Records the telemetry calls a replay makes."""

    def __init__(self):
        self.calls = []

    def steal_request(self, *args, **kwargs):
        self.calls.append(("steal_request", args, kwargs))

    def steal_result(self, *args, **kwargs):
        self.calls.append(("steal_result", args, kwargs))


@settings(max_examples=50, deadline=None)
@given(replay_cases())
def test_telemetry_runs_take_the_base_loop(case):
    """With a sink attached the random policy emits every replayed
    attempt's events, exactly as the base loop does."""
    key = wake_key(case)
    base_sink, flat_sink = RecordingSink(), RecordingSink()
    base = run_replay(case, key, PEScheduler.replay_misses, base_sink)
    flat = run_replay(case, key, RandomScheduler.replay_misses, flat_sink)
    assert flat == base
    assert flat_sink.calls == base_sink.calls


def test_replay_charges_the_software_network_as_remote():
    """The software runtime counts every steal message as remote, even
    to a victim on the thief's own tile."""
    case = dict(num_victims=4, victim_tiles=[0, 0, 0, 0], pe_id=0,
                thief_tile=0, seed=1, network="software", queue_op=1, hop=1,
                request=200, response=250, backoff=3, start=(0, 0, 0),
                horizon=0, key_pick=0, nudge=None)
    flat = run_replay(case, (2000, 0, 0), RandomScheduler.replay_misses)
    # 453 cycles per miss: loop-tops at 0, 453, 906, 1359, 1812, then a
    # fifth attempt at 1812 probes at 2012, at-or-after the key's tick.
    assert flat["attempts"] == 5
    assert flat["resume"][:3] == (2012, 1812, 1809)
    assert flat["net"] == (5, 0, 9)
