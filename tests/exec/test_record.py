"""RunRecord read back from the result cache: per-PE rows on first read.

A warm hit's record keeps its ``pe_stats`` rows as bytes until they
are read; every way of looking at the record must then see exactly the
record an eager ``from_dict(json.loads(...))`` builds from the same
entry.
"""

import copy
import dataclasses
import json
import pickle
import typing

import pytest

from repro.arch.result import PEStats
from repro.exec import JobRunner, ResultCache, RunRecord, make_spec
from repro.exec import record as record_module
from repro.exec.cache import code_salt
from repro.exec.record import canonical_digest
from repro.workers import PAPER_BENCHMARKS, benchmark_has_lite


def _warm_specs():
    """One quick job per benchmark and engine, plus an open-system run
    (whose ``jobs`` rows precede ``pe_stats`` in the stored JSON)."""
    specs = [make_spec(name, 2, quick=True)
             for name in PAPER_BENCHMARKS + ("fib",)]
    specs += [make_spec(name, 2, engine="lite", quick=True)
              for name in PAPER_BENCHMARKS if benchmark_has_lite(name)]
    specs += [make_spec("fib", 2, engine=engine, quick=True)
              for engine in ("cpu", "zynq", "zynq-cpu")]
    specs.append(make_spec("fib", 4, quick=True, workload=dict(
        kind="stochastic", rate=2.0, num_jobs=3, seed=5,
        tenants=[{"name": "gold", "weight": 3}], window=2)))
    return specs


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("warm")
    specs = _warm_specs()
    JobRunner(cache=ResultCache(root)).run_checked(specs)
    return root, specs


@pytest.fixture
def warm(warm_root):
    """A fresh cache over the warm entries, and their specs."""
    root, specs = warm_root
    return ResultCache(root), specs


def _eager(cache, spec):
    """The record as the layout-agnostic path decodes the entry."""
    payload = json.loads(cache._path(spec).read_bytes())
    return RunRecord.from_dict(payload["record"])


def test_every_pe_stats_field_is_an_int():
    # The cut relies on it: a row of ints holds no "[" or "]", so the
    # first "]" after the rows' "[" closes their array.
    hints = typing.get_type_hints(PEStats)
    assert {f.name: hints[f.name] for f in dataclasses.fields(PEStats)} \
        == {f.name: int for f in dataclasses.fields(PEStats)}


VIEWS = {
    "eq": lambda record: record,
    "to_dict": lambda record: record.to_dict(),
    "canonical_json": lambda record: record.canonical_json(),
    "digest": lambda record: record.digest,
    "repr": repr,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
    "asdict": dataclasses.asdict,
    "tasks_executed": lambda record: record.tasks_executed,
    "utilization": lambda record: record.utilization(),
}


@pytest.mark.parametrize("view", VIEWS)
def test_served_record_matches_the_eager_one(warm, view):
    cache, specs = warm
    for spec in specs:
        served = cache.get(spec)
        assert "pe_stats" not in vars(served), \
            f"{spec.label}: served with decoded rows"
        eager = _eager(cache, spec)
        assert VIEWS[view](served) == VIEWS[view](eager), spec.label
        assert served == eager and eager == served
    assert cache.quarantined == 0 and cache.misses == 0


def test_pickled_and_copied_records_carry_decoded_rows(warm):
    cache, specs = warm
    for copier in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy,
                   copy.deepcopy):
        served = cache.get(specs[0])
        copied = copier(served)
        assert "pe_stats" in vars(copied) and "_pe_rows" not in vars(copied)
        assert "_pe_rows" not in vars(served)


def test_records_keep_the_generic_attribute_lookup():
    # A __getattr__ or __getattribute__ on the class would make CPython
    # look up every attribute of every record the slow way.
    assert not hasattr(RunRecord, "__getattr__")
    assert RunRecord.__getattribute__ is object.__getattribute__


def test_hit_decodes_its_rows_once_on_first_read(warm, monkeypatch):
    cache, specs = warm
    spec = specs[0]
    eager = _eager(cache, spec)
    rows_decoded = []
    decoder = record_module._DECODER

    class CountingDecoder:
        def raw_decode(self, text):
            if text[:1] == "[":
                rows_decoded.append(text)
            return decoder.raw_decode(text)

    monkeypatch.setattr(record_module, "_DECODER", CountingDecoder())
    served = cache.get(spec)
    assert (served.ns, served.cycles, served.counters) \
        == (eager.ns, eager.cycles, eager.counters)
    assert "pe_stats" not in vars(served) and rows_decoded == []
    assert served.pe_stats == eager.pe_stats
    assert served.pe_stats is vars(served)["pe_stats"]
    assert served.tasks_executed == eager.tasks_executed
    assert served.utilization() == eager.utilization()
    assert served.to_dict() == eager.to_dict()
    assert len(rows_decoded) == 1


@pytest.mark.parametrize("rows", [
    pytest.param([{"busy_cycles": 3, "hist": [1, 2]}, {"busy_cycles": 4}],
                 id="nested-list"),
    pytest.param([{"busy_cycles": 3, "note": "x]y"}], id="bracket-in-string"),
    pytest.param([{"note": "\"]"}, {"busy_cycles": 1}],
                 id="escaped-quote-bracket"),
    pytest.param([{"note": "]", "tail": 1}], id="bracket-then-more-keys"),
    pytest.param([], id="no-rows"),
])
def test_hand_made_rows_are_served_exactly(tmp_path, rows):
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    record = dataclasses.replace(JobRunner().run_checked([spec])[0],
                                 pe_stats=rows)
    cache.put(spec, record)     # the put layout, checksum and all
    served = cache.get(spec)
    assert served.pe_stats == rows
    assert served == record and served.digest == record.digest
    assert cache.hits == 1 and cache.quarantined == 0


_HEAD = b'{"clock_mhz":1.0,"cycles":5,"label":"L","spec_digest":"D",'


@pytest.mark.parametrize("body", [
    pytest.param(_HEAD + b'"pe_stats":[{"a":[1]},{"b":2}]}',
                 id="nested-list"),
    pytest.param(_HEAD + b'"pe_stats":[{"a":"x]y"}]}',
                 id="bracket-in-string"),
    pytest.param(_HEAD + b'"pe_stats":[{"a":"\\"]"}],"z":"]"}',
                 id="escaped-quote-then-bracket"),
    pytest.param(_HEAD + b'"pe_stats":[],"z":{"pe_stats":[{"a":1}]}}',
                 id="nested-rows-key-last"),
    pytest.param(_HEAD + b'"pe_stats":"\\u0000","z":{"pe_stats":[{"a":1}]}}',
                 id="placeholder-as-the-rows"),
    pytest.param(_HEAD + b'"z":{"pe_stats":[{"a":1}]}}',
                 id="only-a-nested-rows-key"),
    pytest.param(_HEAD + b'"pe_stats":[{"a":1}],"pe_stats":[{"a":2}]}',
                 id="rows-key-twice"),
    pytest.param(_HEAD + b'"pe_stats":[{"a":1}],"z\\"pe_stats":[{"a":2}]}',
                 id="key-ending-in-the-rows-key"),
    pytest.param(_HEAD + b'"pe_stats":[{"a":1}],"z":"\\"pe_stats\\":[2]"}',
                 id="rows-key-in-a-string"),
    pytest.param(b'[{"pe_stats":[{"a":1}]}]', id="not-an-object"),
    pytest.param(_HEAD + b'"pe_stats":[{"a":1}],"value_repr":"\\"q\\""}',
                 id="backslash-but-no-placeholder"),
    pytest.param(b" " + _HEAD + b'"pe_stats":[{"a":1}]}',
                 id="leading-whitespace"),
    pytest.param(_HEAD + b'"pe_stats":[{"a":1}]}\n', id="trailing-newline"),
    pytest.param(b"\xef\xbb\xbf" + _HEAD + b'"pe_stats":[{"a":1}]}',
                 id="utf8-bom"),
    pytest.param(_HEAD + b'"pe_stats":[{"a":1}]}{"b":2}', id="extra-data"),
])
def test_from_json_is_from_dict_of_the_parsed_body(body):
    """Hand-made bodies where the first "]" does not close the rows,
    "pe_stats" names some other array, or the JSON is not compact:
    never a wrong record, and an error wherever json.loads has one."""
    try:
        eager = RunRecord.from_dict(json.loads(body))
    except (KeyError, TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            RunRecord.from_json(body)
        return
    served = RunRecord.from_json(body)
    assert served == eager and served.to_dict() == eager.to_dict()


def test_rows_that_hash_right_but_do_not_parse_fail_loudly(tmp_path):
    """Only a hand-made entry can hold them; verify reports it, and the
    served record raises on the first read of its rows."""
    cache = ResultCache(tmp_path)
    spec = make_spec("fib", 2, quick=True)
    record = JobRunner().run_checked([spec])[0]
    # A leading zero: no longer JSON, though every check but parsing
    # the rows passes.
    body = record.canonical_json().encode().replace(
        b'"busy_cycles":', b'"busy_cycles":0', 1)
    path = cache._path(spec)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"".join((
        b'{"checksum":"', canonical_digest(body).encode(), b'","record":',
        body, b',"salt":"', code_salt().encode(), b'","spec":',
        spec.canonical_json().encode(), b"}")))
    (bad, reason), = cache.verify()[1]
    assert bad == path and "unparseable entry" in reason
    served = cache.get(spec)
    assert served.cycles == record.cycles
    with pytest.raises(ValueError, match=rf"spec {spec.digest}: .*"
                       r"run `repro cache repair`"):
        served.pe_stats
