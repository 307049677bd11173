"""Declarative job specifications for experiment execution.

Every simulation the harnesses run is a pure function of *what* is being
simulated: the benchmark (and its workload parameters), the engine, the
machine size, the configuration overrides, and — for fault-injection
runs — the seeded fault plan.  :class:`JobSpec` captures exactly that
tuple in a frozen, hashable dataclass with a canonical JSON form and a
stable content digest, which makes jobs

* **batchable** — harnesses emit lists of specs and hand them to a
  :class:`~repro.exec.runner.JobRunner` instead of calling the engine in
  a loop;
* **cacheable** — the digest keys the on-disk result cache
  (:mod:`repro.exec.cache`);
* **transportable** — specs pickle cleanly into worker processes.

The digest covers only simulation-relevant inputs; run-time concerns
(telemetry sinks, cache policy, parallelism) deliberately stay out of
the spec so they can never change what a job computes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Optional, Tuple

from repro.core.exceptions import ConfigError

#: Engines a spec may name, mapping to the builders in
#: :mod:`repro.exec.engines`.
ENGINES = ("flex", "lite", "cpu", "zynq", "zynq-cpu")

#: Spec-format version, folded into every digest: bump when the spec's
#: canonical form (not the simulator) changes meaning.
#: v2: optional open-system ``workload`` (docs/WORKLOADS.md).
SPEC_VERSION = 2


def _freeze(value: Any) -> Any:
    """Recursively convert ``value`` to a hashable canonical form."""
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


def _items(mapping: Optional[Dict[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a kwargs dict into a sorted, frozen item tuple."""
    if not mapping:
        return ()
    return tuple(sorted((str(k), _freeze(v)) for k, v in mapping.items()))


def _jsonify(value: Any) -> Any:
    """Canonical JSON projection of an arbitrary spec value.

    Dataclasses (``ClockDomain``, ``MemLatencies``, ``FaultSpec``...)
    flatten to sorted field dicts; tuples become lists.  The projection
    only feeds the digest and debugging output — execution always uses
    the original Python objects.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, built
#: once: the canonical form's encoding of every value.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_value(value: Any) -> str:
    """:data:`_ENCODER`'s text for ``value``, spelled out for the
    scalars a spec's fields hold."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    return _ENCODER.encode(value)


def _json_object(items: Tuple[Tuple[str, Any], ...]) -> str:
    """:data:`_ENCODER`'s text for ``{k: _jsonify(v) for k, v in items}``."""
    if not items:
        return "{}"
    return _ENCODER.encode({k: _jsonify(v) for k, v in items})


@functools.cache
def _config_field_names() -> frozenset:
    from repro.arch.config import AcceleratorConfig

    return frozenset(f.name for f in dataclasses.fields(AcceleratorConfig))


@dataclass(frozen=True)
class JobSpec:
    """One simulation job: everything that determines its outcome.

    ``params`` and ``config`` are sorted ``(name, value)`` tuples (built
    by :func:`make_spec` from keyword dicts) so equal jobs compare and
    hash equal regardless of keyword order.
    """

    benchmark: str
    engine: str = "flex"
    num_pes: int = 4
    quick: bool = True
    platform: str = "accel"
    params: Tuple[Tuple[str, Any], ...] = ()
    config: Tuple[Tuple[str, Any], ...] = ()
    faults: Optional[Any] = None        # repro.resil.FaultSpec
    max_cycles: Optional[int] = None
    #: Canonical JSON string of an open-system workload spec (the
    #: ``describe()`` dict of a :class:`~repro.workload.WorkloadSource`),
    #: or ``None`` for a classic closed run.  Stored as a string so the
    #: spec stays hashable; :attr:`workload_dict` parses it back.
    workload: Optional[str] = None
    # Memos, not inputs: ``dataclasses.replace`` starts them empty
    # instead of copying another spec's digest.
    _digest: Optional[str] = field(default=None, init=False, repr=False,
                                   compare=False)
    _json: Optional[str] = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r} "
                f"(choose from {', '.join(ENGINES)})"
            )
        if self.num_pes < 1:
            raise ConfigError(f"need at least one PE: {self.num_pes}")
        if self.max_cycles is not None and self.max_cycles < 1:
            raise ConfigError(
                f"need a cycle budget of at least 1: {self.max_cycles}")
        # Set with the fields rather than on first use: memos added
        # later cost about 0.7 KB per spec (a per-instance dict on
        # CPython 3.11) in a warm fig7 read-back.
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_json", None)

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable job label (mirrors the engine run labels)."""
        tag = {"flex": "flex", "lite": "lite", "cpu": "cpu",
               "zynq": "zynq", "zynq-cpu": "a9x"}[self.engine]
        return f"{self.benchmark}-{tag}{self.num_pes}"

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def config_dict(self) -> Dict[str, Any]:
        return dict(self.config)

    @property
    def workload_dict(self) -> Optional[Dict[str, Any]]:
        """Parsed workload spec, or ``None`` for closed runs."""
        return None if self.workload is None else json.loads(self.workload)

    def canonical_json(self) -> str:
        """Compact, key-sorted JSON — the digest preimage.

        The ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
        text of ``{"version", "benchmark", "engine", "num_pes", "quick",
        "platform", "params", "config", "faults", "max_cycles",
        "workload"}``: the fields as they are, ``params``, ``config``
        and ``faults`` through :func:`_jsonify`, and ``workload``
        parsed.  The fixed keys are written in sorted order here and
        only the values are encoded.
        """
        if self._json is None:
            faults = ("null" if self.faults is None
                      else _ENCODER.encode(_jsonify(self.faults)))
            workload = ("null" if self.workload is None
                        else _ENCODER.encode(self.workload_dict))
            value = (
                f'{{"benchmark":{_json_value(self.benchmark)}'
                f',"config":{_json_object(self.config)}'
                f',"engine":{_json_value(self.engine)}'
                f',"faults":{faults}'
                f',"max_cycles":{_json_value(self.max_cycles)}'
                f',"num_pes":{_json_value(self.num_pes)}'
                f',"params":{_json_object(self.params)}'
                f',"platform":{_json_value(self.platform)}'
                f',"quick":{_json_value(self.quick)}'
                f',"version":{SPEC_VERSION}'
                f',"workload":{workload}}}')
            object.__setattr__(self, "_json", value)
        return self._json

    def __getstate__(self) -> Dict[str, Any]:
        # Only the submitting process's cache I/O reads the canonical
        # JSON, so it is not shipped to pool workers.
        state = dict(self.__dict__)
        state["_json"] = None
        return state

    @property
    def digest(self) -> str:
        """Stable content digest of the spec (hex, 32 chars)."""
        if self._digest is None:
            value = hashlib.sha256(
                self.canonical_json().encode("utf-8")
            ).hexdigest()[:32]
            object.__setattr__(self, "_digest", value)
        return self._digest


def make_spec(benchmark: str, num_pes: int, *, engine: str = "flex",
              quick: bool = False, platform: str = "accel",
              params: Optional[Dict[str, Any]] = None,
              faults: Optional[Any] = None,
              max_cycles: Optional[int] = None,
              workload: Optional[Dict[str, Any]] = None,
              **config_overrides: Any) -> JobSpec:
    """Build a :class:`JobSpec` from runner-style keyword arguments.

    ``config_overrides`` are :class:`~repro.arch.config.AcceleratorConfig`
    fields; unknown names raise :class:`ConfigError` up front, naming the
    bad key, instead of failing inside the engine constructor on the
    first simulated point.  ``workload`` is an open-system workload spec
    dict (docs/WORKLOADS.md); it is validated and canonicalised through
    :func:`repro.workload.make_source` so equivalent workloads digest
    equal regardless of spelled-out defaults.
    """
    known = _config_field_names()
    for key in config_overrides:
        if key not in known:
            raise ConfigError(
                f"unknown AcceleratorConfig override {key!r} "
                f"(no such field)"
            )
    workload_json = None
    if workload is not None:
        from repro.workload import make_source

        if engine not in ("flex", "zynq"):
            raise ConfigError(
                f"open-system workloads need the flex or zynq engine, "
                f"not {engine!r}"
            )
        workload_json = json.dumps(make_source(workload).describe(),
                                   sort_keys=True, separators=(",", ":"))
    if faults is not None:
        from repro.resil.faults import FaultPlan, FaultSpec

        if isinstance(faults, FaultPlan):
            faults = faults.spec
        if not isinstance(faults, FaultSpec):
            raise ConfigError(
                f"faults must be a FaultSpec or FaultPlan, "
                f"got {type(faults).__name__}"
            )
    return JobSpec(
        benchmark=benchmark,
        engine=engine,
        num_pes=num_pes,
        quick=quick,
        platform=platform,
        params=_items(params),
        config=_items(config_overrides),
        faults=faults,
        max_cycles=max_cycles,
        workload=workload_json,
    )
