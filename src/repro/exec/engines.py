"""Engine builders: turn a :class:`~repro.exec.spec.JobSpec` into a run.

This is the code that used to live in ``repro.harness.runners``: each
builder constructs a *fresh* benchmark instance (runs mutate workload
data), the requested engine, runs to completion, verifies the result
against the benchmark's reference, and returns the
:class:`~repro.arch.result.RunResult`.  ``repro.harness.runners`` keeps
its historical ``run_flex``/``run_lite``/... entry points as thin
wrappers over :func:`simulate`.

``quick=True`` on the spec selects smaller workload instances
(:data:`QUICK_PARAMS`) so the full experiment suite runs in seconds;
the default sizes reproduce the paper's scaling shapes up to 32 PEs.

Because every run builds its engine (and all its seeded LFSR streams)
from scratch, :func:`simulate` is a pure function of the spec: the same
spec produces bit-identical results in-process, across processes, and
across parallel workers (docs/EXECUTION.md).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.arch.accelerator import DEFAULT_MAX_CYCLES, FlexAccelerator
from repro.arch.config import flex_config, lite_config
from repro.arch.lite import LiteAccelerator
from repro.arch.result import RunResult
from repro.core.exceptions import ConfigError
from repro.exec.spec import JobSpec
from repro.sim.timing import ZYNQ_FABRIC_CLOCK
from repro.workers import make_benchmark

#: Reduced workload sizes for fast test/bench runs.
QUICK_PARAMS: Dict[str, dict] = {
    "nw": dict(n=128, block=8),
    "quicksort": dict(n=4096, cutoff=64),
    "cilksort": dict(n=4096, sort_cutoff=128, merge_cutoff=128),
    "queens": dict(n=9, serial_depth=5),
    "knapsack": dict(n=16, serial_items=8),
    "uts": dict(root_children=80, q=0.22),
    "bbgemm": dict(n=128, block=32),
    "bfsqueue": dict(num_nodes=1024, avg_degree=8),
    "spmvcrs": dict(num_rows=512, nnz_per_row=16),
    "stencil2d": dict(height=96, width=96),
    "fib": dict(n=14),
}


class VerificationError(AssertionError):
    """A simulation produced an incorrect result."""


def bench_params(name: str, quick: bool, overrides: Optional[dict] = None
                 ) -> dict:
    params = dict(QUICK_PARAMS.get(name, {})) if quick else {}
    if overrides:
        params.update(overrides)
    return params


def _warm(engine, bench) -> None:
    """Model CPU-initialised data: pre-load the workload into the shared
    L2 for benchmarks whose dataset fits (``l2_resident``)."""
    memory = engine.memory
    if bench.l2_resident and hasattr(memory, "warm_l2"):
        memory.warm_l2(bench.mem)


def _verify(bench, result: RunResult, label: str) -> RunResult:
    if not bench.verify(result.value):
        raise VerificationError(
            f"{label}: wrong result {result.value!r} "
            f"(expected {bench.expected()!r})"
        )
    return result


def _instrument(engine, telemetry: bool):
    """Attach an event sink when ``telemetry`` was requested."""
    if not telemetry:
        return None
    from repro.obs import attach_telemetry

    return attach_telemetry(engine)


def _inject_faults(engine, faults):
    """Attach a fault plan (a ``FaultSpec`` or ready ``FaultPlan``)."""
    if faults is None:
        return None
    from repro.resil.faults import FaultPlan, FaultSpec, attach_faults

    plan = FaultPlan(faults) if isinstance(faults, FaultSpec) else faults
    return attach_faults(engine, plan)


def _max_cycles(spec: JobSpec) -> int:
    return (spec.max_cycles if spec.max_cycles is not None
            else DEFAULT_MAX_CYCLES)


def _simulate_flex(spec: JobSpec, telemetry: bool,
                   extra_config: Optional[dict] = None,
                   label_tag: str = "flex") -> RunResult:
    if spec.workload is not None:
        return _simulate_open(spec, telemetry, extra_config, label_tag)
    bench = make_benchmark(
        spec.benchmark, **bench_params(spec.benchmark, spec.quick,
                                       spec.params_dict))
    overrides = dict(extra_config or {})
    overrides.update(spec.config_dict)
    config = flex_config(spec.num_pes, **overrides)
    engine = FlexAccelerator(config, bench.flex_worker(spec.platform))
    sink = _instrument(engine, telemetry)
    _inject_faults(engine, spec.faults)
    _warm(engine, bench)
    result = engine.run(
        bench.root_task(),
        max_cycles=_max_cycles(spec),
        label=f"{spec.benchmark}-{label_tag}{spec.num_pes}",
    )
    result.telemetry = sink
    return _verify(bench, result, result.label)


def _simulate_open(spec: JobSpec, telemetry: bool,
                   extra_config: Optional[dict] = None,
                   label_tag: str = "flex") -> RunResult:
    """Open-system run: an arrival stream instead of a single root.

    Builds the :class:`~repro.workload.WorkloadSource` from the spec's
    canonical workload dict, binds one root task per arrival (per-tenant
    benchmark instances so tenant ``params`` can differ), and drives
    :meth:`~repro.arch.accelerator.FlexAccelerator.run_workload`.  Every
    job's host value is verified against its tenant's reference.
    """
    from repro.workload import bind_jobs, make_source

    source = make_source(spec.workload_dict)
    base_params = bench_params(spec.benchmark, spec.quick,
                               spec.params_dict)
    benches = {}
    for tenant in source.tenants:
        params = dict(base_params)
        params.update(tenant.params_dict)
        benches[tenant.name] = make_benchmark(spec.benchmark, **params)
    primary = benches[source.tenants[0].name]
    overrides = dict(extra_config or {})
    overrides.update(spec.config_dict)
    config = flex_config(spec.num_pes, **overrides)
    engine = FlexAccelerator(config, primary.flex_worker(spec.platform))
    sink = _instrument(engine, telemetry)
    _inject_faults(engine, spec.faults)
    _warm(engine, primary)
    jobs = bind_jobs(source,
                     lambda arrival: benches[arrival.tenant].root_task())
    # A single job cannot interleave with anything, so any benchmark may
    # run through the workload path (the closed-equivalence pins rely on
    # this); multi-job streams need a pure worker.
    if len(jobs) > 1 and not primary.reentrant:
        raise ConfigError(
            f"benchmark {spec.benchmark!r} is not re-entrant: its jobs "
            "mutate shared workload data, so it cannot run as an "
            "open-system arrival stream (re-entrant benchmarks: pure "
            "workers like 'fib'; see docs/WORKLOADS.md)"
        )
    result = engine.run_workload(
        jobs,
        tenants=source.tenants,
        admit_window=source.admit_window,
        max_cycles=_max_cycles(spec),
        label=f"{spec.benchmark}-{label_tag}{spec.num_pes}-open",
    )
    result.telemetry = sink
    for job in jobs:
        bench = benches[job.tenant]
        value = result.host.slots.get(job.job_id)
        if not bench.verify(value):
            raise VerificationError(
                f"{result.label}: job {job.job_id} (tenant "
                f"{job.tenant!r}) wrong result {value!r} "
                f"(expected {bench.expected()!r})"
            )
    return result


def _simulate_lite(spec: JobSpec, telemetry: bool) -> RunResult:
    bench = make_benchmark(
        spec.benchmark, **bench_params(spec.benchmark, spec.quick,
                                       spec.params_dict))
    if not bench.has_lite:
        raise ConfigError(f"{spec.benchmark} has no LiteArch implementation")
    config = lite_config(spec.num_pes, **spec.config_dict)
    engine = LiteAccelerator(config, bench.lite_worker(spec.platform))
    sink = _instrument(engine, telemetry)
    _warm(engine, bench)
    result = engine.run(
        bench.lite_program(spec.num_pes),
        max_cycles=_max_cycles(spec),
        label=f"{spec.benchmark}-lite{spec.num_pes}",
    )
    result.telemetry = sink
    return _verify(bench, result, result.label)


def _simulate_cpu(spec: JobSpec, telemetry: bool,
                  zynq: bool = False) -> RunResult:
    from repro.cpu.multicore import MulticoreCPU, cpu_config
    from repro.cpu.zynq import A9_CPI_FACTOR, zynq_cpu_config

    bench = make_benchmark(
        spec.benchmark, **bench_params(spec.benchmark, spec.quick,
                                       spec.params_dict))
    worker = bench.flex_worker("cpu")
    if zynq:
        config = zynq_cpu_config(spec.num_pes, **spec.config_dict)
        worker.costs = worker.costs.scaled(A9_CPI_FACTOR)
        label = f"{spec.benchmark}-a9x{spec.num_pes}"
    else:
        config = cpu_config(spec.num_pes, **spec.config_dict)
        label = f"{spec.benchmark}-cpu{spec.num_pes}"
    engine = MulticoreCPU(config, worker)
    sink = _instrument(engine, telemetry)
    _warm(engine, bench)
    result = engine.run(
        bench.root_task(), max_cycles=_max_cycles(spec), label=label,
    )
    result.telemetry = sink
    return _verify(bench, result, result.label)


def simulate(spec: JobSpec, *, telemetry: bool = False) -> RunResult:
    """Run one job and return the full (verified) :class:`RunResult`.

    ``telemetry`` attaches an in-memory event sink to the run; it is a
    run-time concern, not part of the spec, and never changes timing.
    Only flex and zynq inject a spec's ``faults``; any other engine
    raises ``ConfigError`` for a faulted spec rather than simulate it
    fault-free and return a record for a run its spec does not name.
    """
    if spec.faults is not None and spec.engine not in ("flex", "zynq"):
        raise ConfigError(
            f"the {spec.engine} engine cannot inject faults; a spec "
            "with faults runs on flex or zynq")
    if spec.engine == "flex":
        return _simulate_flex(spec, telemetry)
    if spec.engine == "lite":
        return _simulate_lite(spec, telemetry)
    if spec.engine == "cpu":
        return _simulate_cpu(spec, telemetry)
    if spec.engine == "zynq":
        # Zedboard prototype: 100 MHz fabric, stream buffers over the
        # single ACP port instead of coherent L1 caches (Section V-B).
        return _simulate_flex(
            spec, telemetry,
            extra_config=dict(clock=ZYNQ_FABRIC_CLOCK, memory="stream"),
        )
    if spec.engine == "zynq-cpu":
        return _simulate_cpu(spec, telemetry, zynq=True)
    raise AssertionError(f"unreachable engine {spec.engine!r}")
