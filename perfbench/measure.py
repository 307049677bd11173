"""One measured pass of one workload, in a fresh interpreter.

``perfbench/run.py`` starts this module once per pass::

    python3 -m perfbench.measure --workload NAME --seed N --work-dir DIR
                                 [--trace --spans PATH] [--smoke]
                                 [--setup-only]

It prints the pass's raw measurements as one JSON object on its last
line of standard output.  Set-up ends when the first batch is
submitted; the cold and warm phases are timed separately, and the
host-speed reference (``perfbench.speedref``) is sampled before and
after them.  With
``--trace`` the layer calls listed in :func:`add_layer_patches` are
recorded as spans during both phases, and the spans are written to
``PATH`` after timing ends.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from repro.exec import (
    JobFailedError,
    JobRunner,
    ResultCache,
    RunRecord,
    code_salt,
)
from repro.obs.ledger import RunLedger

from perfbench import speedref
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS, Workload, campaign_args

SCHED_PE_HOOKS = ("pick_victim", "note_steal", "note_drop")
SCHED_POLICY_HOOKS = ("scheduler_for", "steal_plan", "local_pop",
                      "spawn_target", "place_round_task", "admit")


class BenchRunner(JobRunner):
    """A :class:`JobRunner` whose batches are traced as one exec span.

    The span is named ``exec.pool`` when the batch simulated on a
    process pool (its self time is then mostly the wait for the pool)
    and ``exec.run`` otherwise (runner bookkeeping).
    """

    tracer: Optional[Tracer] = None

    def run(self, specs):
        if self.tracer is None:
            return super().run(specs)
        executed = self.stats.executed
        with self.tracer.span("exec.run") as record:
            outcomes = super().run(specs)
            if self.jobs > 1 and self.stats.executed - executed > 1:
                record[0] = "exec.pool"
        return outcomes


def _family(cls) -> List[type]:
    """``cls`` and all its subclasses, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _family(sub) if c not in out)
    return out


def add_layer_patches(tracer: Tracer) -> None:
    """Register the public calls into each layer with ``tracer``."""
    import repro.arch.hetero  # noqa: F401  (defines worker wrappers)
    import repro.exec.engines as engines
    import repro.workload as workload
    from repro.core.context import Worker
    from repro.kernel import BACKENDS, resolve_backend
    from repro.mem.dma import DmaMemory
    from repro.mem.hierarchy import (
        MemoryHierarchy,
        PerfectMemory,
        StreamBufferMemory,
    )
    from repro.sched.base import PEScheduler, SchedulingPolicy
    from repro.workers import Benchmark

    def each(classes, attrs, name):
        for cls in classes:
            for attr in attrs:
                if attr in cls.__dict__:
                    tracer.patch(cls, attr, name.format(attr=attr))

    tracer.patch(BACKENDS[resolve_backend(None)], "run", "kernel_arch")
    each(_family(Worker), ("execute",), "workers.execute")
    each(_family(Benchmark), ("verify",), "workers.verify")
    tracer.patch(engines, "make_benchmark", "workers.make_benchmark")
    memories = (MemoryHierarchy, PerfectMemory, StreamBufferMemory,
                DmaMemory)
    each(memories, ("access",), "mem.access")
    each(memories, ("warm_l2",), "mem.warm_l2")
    each(_family(PEScheduler), SCHED_PE_HOOKS, "sched.{attr}")
    each(_family(SchedulingPolicy), SCHED_POLICY_HOOKS, "sched.{attr}")
    tracer.patch(workload, "make_source", "workload.make_source")
    tracer.patch(workload, "bind_jobs", "workload.bind_jobs")
    tracer.patch(ResultCache, "get", "exec.cache_get")
    tracer.patch(ResultCache, "put", "exec.cache_put")
    tracer.patch(RunRecord, "from_result", "exec.record")
    tracer.patch(engines, "simulate", "arch.setup")


def environment() -> Dict[str, object]:
    """What a result must be read with: backend, overrides, host."""
    from repro.kernel import resolve_backend

    return {
        "backend": resolve_backend(None),
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
        "REPRO_JOBS": os.environ.get("REPRO_JOBS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "code_salt": code_salt(),
    }


def _job_row(spec, record, entry: Optional[dict]) -> dict:
    """The numbers the metrics need from one verified job."""
    pes = record.pe_stats
    mem = record.mem_summary
    counters = record.counters
    jobs = record.jobs or []
    return {
        "label": record.label,
        "engine": spec.engine,
        "pes": len(pes),
        "digest": record.digest,
        "cycles": record.cycles,
        "tasks": record.tasks_executed,
        "busy": sum(p["busy_cycles"] for p in pes),
        "steal_attempts": record.total_steal_attempts,
        "steal_hits": record.total_steals,
        "steal_remote": record.remote_steals,
        "arg_local": counters.get("arg_messages_local", 0),
        "arg_remote": counters.get("arg_messages_remote", 0),
        "pstore_high_water": counters.get("pstore_high_water", 0),
        "park_elided": counters.get("park.events_elided", 0),
        "pe_parks": counters.get("park.pe_parks", 0),
        "admission_high_water": counters.get("admission_high_water", 0),
        "l1_hits": mem.get("l1_hits", 0),
        "l1_misses": mem.get("l1_misses", 0),
        "l2_misses": mem.get("l2_misses", 0),
        "c2c": mem.get("c2c_transfers", 0),
        "dram_bytes": mem.get("dram_bytes", 0),
        "latencies": ([j["latency"] for j in jobs] if jobs
                      else [record.cycles]),
        "inject_waits": [j["injected"] - j["arrival"] for j in jobs],
        "admit_waits": [j["admitted"] - j["injected"] for j in jobs],
        "run_s": entry["run_seconds"] if entry else 0.0,
        "queue_s": entry["queue_seconds"] if entry else 0.0,
    }


def _pickle_bytes(outcomes) -> int:
    """Bytes a pool moves per simulated job: the submitted arguments
    and the returned ``(outcome, run_s, queue_s)`` tuple."""
    return sum(len(pickle.dumps((spec, None, 0.0, None)))
               + len(pickle.dumps((outcome, 0.0, 0.0)))
               for spec, outcome in outcomes)


def _batch(runner: BenchRunner, specs, smoke: bool,
           tracer: Optional[Tracer]) -> None:
    """Submit the workload's batch once and wait for it."""
    if specs is not None:
        runner.run(specs)
        return
    from repro.harness.fig7 import run_fig7

    with tracer.span("harness") if tracer else nullcontext():
        try:
            run_fig7(quick=True, runner=runner, **campaign_args(smoke))
        except JobFailedError:
            pass    # every outcome already reached the progress hook


def measure(workload: Workload, seed: int, work: Path,
            tracer: Optional[Tracer], smoke: bool = False,
            setup_only: bool = False) -> dict:
    """Measure one pass; with ``setup_only``, stop once set up."""
    env = environment()
    specs = workload.specs(seed, smoke) if workload.specs else None
    work.mkdir(parents=True)
    cold_out: List = []
    runner = BenchRunner(
        jobs=workload.jobs,
        cache=ResultCache(work / "cache") if specs is None else None,
        ledger=RunLedger(work / "ledger"),
        progress=lambda done, total, spec, outcome, cached:
            cold_out.append((spec, outcome)))
    runner.tracer = tracer
    setup_end = time.perf_counter()
    ref_s = speedref.sample()
    if setup_only:
        return {"env": env, "setup_end": setup_end,
                "ref_s": ref_s + speedref.sample()}

    with tracer.installed() if tracer else nullcontext():
        start = time.perf_counter()
        _batch(runner, specs, smoke, tracer)
        cold_s = time.perf_counter() - start

    records = {spec.digest: outcome for spec, outcome in cold_out
               if outcome.ok}
    if specs is not None:
        warm_cache = ResultCache(work / "warm")
        for spec, outcome in cold_out:
            if outcome.ok:
                warm_cache.put(spec, outcome)
        warm_root = warm_cache.root
    else:
        warm_root = runner.cache.root
    warm_out: List = []
    warm_simulated = 0
    warm_rep_s: List[float] = []
    warm_first = len(tracer.spans) if tracer else 0
    with tracer.installed() if tracer else nullcontext():
        for _ in range(2 if smoke else workload.warm_reps):
            start = time.perf_counter()
            warm = BenchRunner(
                jobs=workload.jobs, cache=ResultCache(warm_root),
                progress=lambda done, total, spec, outcome, cached:
                    warm_out.append((spec, outcome)))
            warm.tracer = tracer
            _batch(warm, specs, smoke, tracer)
            warm_rep_s.append(time.perf_counter() - start)
            warm_simulated += warm.stats.executed + warm.stats.failed

    ref_s += speedref.sample()
    ledger = {e["digest"]: e for e in runner.ledger.entries()}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "env": env,
        "setup_end": setup_end,
        "cold_s": cold_s,
        "warm_s": sum(warm_rep_s),
        "warm_batch": len(warm_out) // len(warm_rep_s),
        "warm_rep_s": warm_rep_s,
        "jobs": [_job_row(spec, outcome, ledger.get(spec.digest))
                 for spec, outcome in cold_out if outcome.ok],
        "failed_jobs": [str(o) for _, o in cold_out if not o.ok],
        "warm_served": len(warm_out),
        "warm_simulated": warm_simulated,
        "warm_mismatched": sum(
            1 for spec, outcome in warm_out
            if not outcome.ok or spec.digest not in records
            or outcome.digest != records[spec.digest].digest),
        "pool_jobs": runner.jobs if runner.stats.executed > 1 else 1,
        "pickle_bytes": (_pickle_bytes(cold_out)
                         if runner.jobs > 1 else 0),
        "rss_mb": (own + (pool if workload.jobs > 1 else 0)) / 1024.0,
        "ref_s": ref_s,
    }
    if tracer is not None:
        result["layers"] = tracer.self_times()
        result["warm_layers"] = tracer.self_times(warm_first)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = Tracer()
        add_layer_patches(tracer)
    result = measure(WORKLOADS[args.workload], args.seed,
                     Path(args.work_dir), tracer, args.smoke,
                     args.setup_only)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
