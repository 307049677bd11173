"""JobSpec: canonical form, digests, and validation."""

import dataclasses
import json
import pickle

import pytest

from repro.core.exceptions import ConfigError
from repro.exec import ENGINES, JobSpec, make_spec


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
