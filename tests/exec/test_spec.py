"""JobSpec: canonical form, digests, and validation."""

import dataclasses
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import AcceleratorConfig
from repro.core.exceptions import ConfigError
from repro.exec import ENGINES, JobSpec, make_spec
from repro.resil.faults import FaultSpec
from repro.sim.timing import ClockDomain


class TestMakeSpec:
    def test_defaults(self):
        spec = make_spec("fib", 4)
        assert spec.benchmark == "fib"
        assert spec.engine == "flex"
        assert spec.num_pes == 4
        assert spec.quick is False
        assert spec.faults is None

    def test_keyword_order_is_canonicalised(self):
        a = make_spec("fib", 4, quick=True, l1_size=8192, net_hop_cycles=16)
        b = make_spec("fib", 4, quick=True, net_hop_cycles=16, l1_size=8192)
        assert a == b
        assert hash(a) == hash(b)
        assert a.digest == b.digest

    def test_params_order_is_canonicalised(self):
        a = make_spec("fib", 2, params={"n": 10})
        b = make_spec("fib", 2, params=dict([("n", 10)]))
        assert a.digest == b.digest

    def test_unknown_config_override_rejected(self):
        with pytest.raises(ConfigError, match="l1_sise"):
            make_spec("fib", 4, l1_sise=8192)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="warp"):
            make_spec("fib", 4, engine="warp")

    def test_zero_pes_rejected(self):
        with pytest.raises(ConfigError):
            make_spec("fib", 0)

    @pytest.mark.parametrize("max_cycles", [0, -5])
    def test_cycle_budget_below_one_rejected(self, max_cycles):
        with pytest.raises(ConfigError, match="cycle budget"):
            make_spec("fib", 4, max_cycles=max_cycles)

    def test_bad_faults_type_rejected(self):
        with pytest.raises(ConfigError, match="FaultSpec"):
            make_spec("fib", 4, faults=0.01)

    def test_fault_plan_normalises_to_spec(self):
        from repro.resil.faults import FaultPlan, FaultSpec

        fault_spec = FaultSpec.uniform(0.01, seed=7)
        by_spec = make_spec("fib", 4, faults=fault_spec)
        by_plan = make_spec("fib", 4, faults=FaultPlan(fault_spec))
        assert by_spec.digest == by_plan.digest


class TestDigest:
    def test_every_field_moves_the_digest(self):
        base = make_spec("fib", 4, quick=True)
        variants = [
            make_spec("uts", 4, quick=True),
            make_spec("fib", 8, quick=True),
            make_spec("fib", 4, quick=False),
            make_spec("fib", 4, engine="lite", quick=True),
            make_spec("fib", 4, quick=True, l1_size=8192),
            make_spec("fib", 4, quick=True, params={"n": 5}),
            make_spec("fib", 4, quick=True, max_cycles=10_000),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == 1 + len(variants)

    def test_canonical_json_is_sorted_and_compact(self):
        spec = make_spec("fib", 4, quick=True, l1_size=8192)
        text = spec.canonical_json()
        assert ": " not in text and ", " not in text
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert payload["config"] == {"l1_size": 8192}

    def test_digest_is_stable_across_instances(self):
        make = lambda: make_spec("quicksort", 8, quick=True,
                                 params={"n": 64}, steal_policy="random")
        assert make().digest == make().digest

    def test_replace_recomputes_the_memoised_digest(self):
        spec = make_spec("fib", 4, quick=True)
        spec.digest
        moved = dataclasses.replace(spec, num_pes=8)
        fresh = make_spec("fib", 8, quick=True)
        assert moved.canonical_json() == fresh.canonical_json()
        assert moved.digest == fresh.digest != spec.digest

    def test_pickle_round_trip_keeps_the_digest(self):
        spec = make_spec("quicksort", 8, quick=True, params={"n": 64})
        text = spec.canonical_json()
        data = pickle.dumps(spec)
        assert text.encode("utf-8") not in data, \
            "pool workers never read the canonical JSON"
        clone = pickle.loads(data)
        assert clone == spec and hash(clone) == hash(spec)
        assert clone.digest == spec.digest
        assert clone.canonical_json() == text

    def test_labels(self):
        assert make_spec("fib", 4).label == "fib-flex4"
        assert make_spec("fib", 8, engine="lite").label == "fib-lite8"
        assert make_spec("fib", 2, engine="cpu").label == "fib-cpu2"
        assert make_spec("fib", 2, engine="zynq-cpu").label == "fib-a9x2"

    def test_engine_list_matches_cli(self):
        assert set(ENGINES) == {"flex", "lite", "cpu", "zynq", "zynq-cpu"}


class TestSpecIsFrozen:
    def test_immutable(self):
        spec = make_spec("fib", 4)
        with pytest.raises(AttributeError):
            spec.num_pes = 8

    def test_usable_as_dict_key(self):
        spec = make_spec("fib", 4)
        assert {spec: 1}[make_spec("fib", 4)] == 1

    def test_direct_construction_validates_engine(self):
        with pytest.raises(ConfigError):
            JobSpec(benchmark="fib", engine="nope")


# -- the canonical JSON against the form it was first defined by ------
#
# A test-local copy of the spec's original canonical form: a dict of
# JSON-safe values, dumped with sorted keys and compact separators.
# Every spec and record digest, and every cache entry, rests on these
# bytes, so ``canonical_json()`` must write them exactly, also for
# values that are odd but accepted.

def _oracle_jsonify(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _oracle_jsonify(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _oracle_jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_oracle_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _oracle_json(spec):
    return json.dumps({
        "version": 2,
        "benchmark": spec.benchmark,
        "engine": spec.engine,
        "num_pes": spec.num_pes,
        "quick": spec.quick,
        "platform": spec.platform,
        "params": {k: _oracle_jsonify(v) for k, v in spec.params},
        "config": {k: _oracle_jsonify(v) for k, v in spec.config},
        "faults": _oracle_jsonify(spec.faults),
        "max_cycles": spec.max_cycles,
        "workload": (None if spec.workload is None
                     else json.loads(spec.workload)),
    }, sort_keys=True, separators=(",", ":"))


_CONFIG_NAMES = sorted(f.name for f in dataclasses.fields(AcceleratorConfig))

# Non-ASCII text, quotes, backslashes and control characters all
# take json's escapes.
_text = st.text(max_size=6) | st.sampled_from(
    ["", "é", "☃", "\U0001f600", 'a"b', "back\\slash", "\n\t\x00",
     "\x7f"])
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(), _text)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8)


_fault_specs = st.builds(
    FaultSpec, steal_drop_rate=st.floats(0.0, 1.0),
    arg_delay_cycles=st.integers(0, 10**6), seed=st.integers(1, 0xFFFF))
_clock_domains = st.builds(
    ClockDomain, st.floats(min_value=1e-3, max_value=1e4), _text)


# What a spec may hold as a param or config value: nested lists,
# tuples and dicts of JSON scalars and of dataclasses.
_spec_values = st.recursive(
    _json_scalars | _clock_domains | _fault_specs,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8)

# Floats, infinities and NaN pass the field checks too.
_spec_fields = dict(
    engine=st.sampled_from(ENGINES),
    num_pes=st.integers(1, 1024) | st.just(True) | st.floats(1.0, 1e6),
    quick=st.booleans() | st.sampled_from([0, 1]),
    platform=st.sampled_from(["accel", "zedboard"]) | _text,
    faults=st.none() | _fault_specs,
    max_cycles=st.none() | st.integers(1, 2**63)
    | st.floats(min_value=1.0) | st.just(float("nan")),
)


@settings(max_examples=150, deadline=None)
@given(benchmark=_text,
       params=st.dictionaries(_text, _spec_values, max_size=4),
       config=st.dictionaries(st.sampled_from(_CONFIG_NAMES), _spec_values,
                              max_size=3),
       **_spec_fields)
def test_make_spec_json_and_digest_match_the_oracle(benchmark, params,
                                                    config, **fields):
    spec = make_spec(benchmark, fields.pop("num_pes"), params=params,
                     **fields, **config)
    text = _oracle_json(spec)
    assert spec.canonical_json() == text
    assert spec.digest == hashlib.sha256(
        text.encode("utf-8")).hexdigest()[:32]


@settings(max_examples=150, deadline=None)
@given(benchmark=_text,
       params=st.lists(st.tuples(_text, _spec_values), max_size=4),
       config=st.lists(st.tuples(_text, _spec_values), max_size=3),
       workload=st.none() | st.builds(
           lambda value, indent, sort: json.dumps(
               value, indent=indent, sort_keys=sort, ensure_ascii=False),
           st.dictionaries(_text, _json_values, max_size=4),
           st.none() | st.integers(0, 2), st.booleans()),
       **_spec_fields)
def test_direct_spec_json_and_digest_match_the_oracle(benchmark, params,
                                                      config, workload,
                                                      **fields):
    # Built directly, a spec may hold unsorted or repeated keys and a
    # workload string that is not in canonical form.
    spec = JobSpec(benchmark=benchmark, params=tuple(params),
                   config=tuple(config), workload=workload, **fields)
    text = _oracle_json(spec)
    assert spec.canonical_json() == text
    assert spec.digest == hashlib.sha256(
        text.encode("utf-8")).hexdigest()[:32]


def test_fig7_quick_spec_digests_are_pinned():
    """One hash over the digests of Figure 7's 134 quick specs, in the
    order the campaign builds them."""
    from repro.harness.fig7 import run_fig7

    class _Capture(Exception):
        pass

    class _Runner:
        def run_checked(self, specs):
            self.specs = list(specs)
            raise _Capture

    runner = _Runner()
    with pytest.raises(_Capture):
        run_fig7(quick=True, runner=runner)
    assert len(runner.specs) == 134
    for spec in runner.specs:
        assert spec.canonical_json() == _oracle_json(spec)
    joined = "\n".join(spec.digest for spec in runner.specs)
    assert hashlib.sha256(joined.encode("ascii")).hexdigest()[:16] == \
        "be64b16b9ba43c7b"
