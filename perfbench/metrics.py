"""Turn raw pass measurements (``perfbench.measure``) into metrics.

Host timings are taken per pass and reported as the median over the
run's passes; the reported values are first divided by each pass's
host-speed factor (:func:`at_nominal_speed`).  Simulated quantities are deterministic, so they come
from the first pass; :func:`checks` verifies every other pass produced
the same records.  They are per-layer metrics, not end-to-end ones:
open_fib16's arrival stream comes from the seed, and its simulated
latency varies ~30% from one 128-job stream to the next, which no
regression bound could absorb.
"""

from __future__ import annotations

import hashlib
from statistics import median
from typing import Dict, List, Tuple

from perfbench import speedref
from perfbench.stats import geomean, percentile

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END: Dict[str, str] = {
    "sim_tasks_per_s": "tasks/s",
    "jobs_per_s": "jobs/s",
    "warm_jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER: Dict[str, str] = {
    "sim_cycles": "cycles",
    "sim_latency_p50_cycles": "cycles",
    "sim_latency_p90_cycles": "cycles",
    "kernel_arch.self_s": "s",
    "kernel_arch.us_per_task": "us",
    "arch.setup_s": "s",
    "arch.tasks": "count",
    "arch.utilization": "ratio",
    "arch.steal_attempts": "count",
    "arch.steal_hit_ratio": "ratio",
    "arch.remote_steal_ratio": "ratio",
    "arch.arg_remote_ratio": "ratio",
    "arch.pstore_high_water": "count",
    "arch.park_events_elided": "count",
    "arch.pe_parks": "count",
    "sched.calls": "count",
    "sched.self_s": "s",
    "workers.execute_calls": "count",
    "workers.execute_s": "s",
    "workers.make_benchmark_s": "s",
    "workers.verify_s": "s",
    "mem.access_calls": "count",
    "mem.access_s": "s",
    "mem.us_per_access": "us",
    "mem.warm_l2_s": "s",
    "mem.l1_miss_rate": "ratio",
    "mem.l2_misses": "count",
    "mem.c2c_transfers": "count",
    "mem.dram_bytes": "bytes",
    "workload.bind_s": "s",
    "workload.inject_wait_p50_cycles": "cycles",
    "workload.admit_wait_p50_cycles": "cycles",
    "workload.admission_high_water": "count",
    "exec.cache_get_s": "s",
    "exec.cache_put_s": "s",
    "exec.cache_hit_ratio": "ratio",
    "exec.record_s": "s",
    "exec.overhead_s": "s",
    "exec.pool_wait_s": "s",
    "exec.queue_wait_p50_s": "s",
    "exec.pool_busy_frac": "ratio",
    "exec.pickle_bytes": "bytes",
    "cpu.job_s": "s",
    "arch.flex_job_s": "s",
    "arch.lite_job_s": "s",
    "harness.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}

#: Span names (see ``perfbench.measure.add_layer_patches``) -> the
#: per-layer self-time metric they add to.  ``sched.*`` spans all add
#: to ``sched.self_s``.
SELF_TIME = {
    "kernel_arch": "kernel_arch.self_s",
    "arch.setup": "arch.setup_s",
    "workers.execute": "workers.execute_s",
    "workers.make_benchmark": "workers.make_benchmark_s",
    "workers.verify": "workers.verify_s",
    "mem.access": "mem.access_s",
    "mem.warm_l2": "mem.warm_l2_s",
    "workload.make_source": "workload.bind_s",
    "workload.bind_jobs": "workload.bind_s",
    "exec.cache_get": "exec.cache_get_s",
    "exec.cache_put": "exec.cache_put_s",
    "exec.record": "exec.record_s",
    "exec.run": "exec.overhead_s",
    "exec.pool": "exec.pool_wait_s",
    "harness": "harness.self_s",
}


def layer_of(span: str) -> str:
    """Self-time metric a span name adds to."""
    if span.startswith("sched."):
        return "sched.self_s"
    return SELF_TIME[span]


def wall(p: dict) -> float:
    """Timed host seconds of one pass (cold plus warm phase)."""
    return p["cold_s"] + p["warm_s"]


def job_seconds(passes: List[dict]) -> Dict[str, float]:
    """Each job's host run time (from the run ledger), median over the
    passes.  Per-job medians keep a burst of host noise during one job
    of one pass out of every metric built on them."""
    times: Dict[str, List[float]] = {}
    for p in passes:
        for j in p["jobs"]:
            times.setdefault(j["label"], []).append(j["run_s"])
    return {label: median(ts) for label, ts in times.items()}


def simulated(p: dict) -> Dict[str, float]:
    """Simulated time of one pass: geomean cycles over its jobs, and
    the nearest-rank job latency (arrival to completion; a closed job's
    latency is its run)."""
    latencies = [x for j in p["jobs"] for x in j["latencies"]]
    return {
        "sim_cycles": geomean([j["cycles"] for j in p["jobs"]]),
        "sim_latency_p50_cycles": percentile(latencies, 50),
        "sim_latency_p90_cycles": percentile(latencies, 90),
    }


def end_to_end(passes: List[dict], setups: List[float]
               ) -> Dict[str, float]:
    """End-to-end metrics of an untraced run; ``setups`` holds the
    set-up time of every pass and set-up probe."""
    job_s = job_seconds(passes)
    first = passes[0]
    return {
        "sim_tasks_per_s": (sum(j["tasks"] for j in first["jobs"])
                            / sum(job_s.values())),
        "jobs_per_s": len(first["jobs"]) / median([p["cold_s"]
                                                   for p in passes]),
        "warm_jobs_per_s": first["warm_batch"] / median(
            [t for p in passes for t in p["warm_rep_s"]]),
        "job_p50_s": percentile(list(job_s.values()), 50),
        "job_p90_s": percentile(list(job_s.values()), 90),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["rss_mb"] for p in passes]),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(untraced: dict, traced: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    Self times and call counts come from the traced pass; ledger-based
    per-job times (queue wait, pool busy, per-engine job time) come
    from the untraced pass of the same run, which tracing cannot
    inflate; simulated counters are identical in both.
    """
    out = {name: 0.0 for name in PER_LAYER}
    calls: Dict[str, int] = {}
    for span, (seconds, count) in traced["layers"].items():
        out[layer_of(span)] += seconds
        calls[span] = calls.get(span, 0) + count
    sched_calls = sum(c for s, c in calls.items() if s.startswith("sched."))
    jobs = traced["jobs"]
    tasks = sum(j["tasks"] for j in jobs)

    def total(key: str) -> float:
        return sum(j[key] for j in jobs)

    inject = [w for j in jobs for w in j["inject_waits"]]
    admit = [w for j in jobs for w in j["admit_waits"]]
    lookups = calls.get("exec.cache_get", 0)
    hits = traced["warm_served"] - traced["warm_simulated"]
    ref = untraced["jobs"]

    def engine_s(engine: str) -> float:
        return sum(j["run_s"] for j in ref if j["engine"] == engine)

    out.update(simulated(traced))
    out.update({
        "kernel_arch.us_per_task": _ratio(out["kernel_arch.self_s"],
                                          tasks) * 1e6,
        "arch.tasks": tasks,
        "arch.utilization": _ratio(
            total("busy"), sum(j["cycles"] * j["pes"] for j in jobs)),
        "arch.steal_attempts": total("steal_attempts"),
        "arch.steal_hit_ratio": _ratio(total("steal_hits"),
                                       total("steal_attempts")),
        "arch.remote_steal_ratio": _ratio(total("steal_remote"),
                                          total("steal_hits")),
        "arch.arg_remote_ratio": _ratio(
            total("arg_remote"), total("arg_remote") + total("arg_local")),
        "arch.pstore_high_water": max(j["pstore_high_water"]
                                      for j in jobs),
        "arch.park_events_elided": total("park_elided"),
        "arch.pe_parks": total("pe_parks"),
        "sched.calls": sched_calls,
        "workers.execute_calls": calls.get("workers.execute", 0),
        "mem.access_calls": calls.get("mem.access", 0),
        "mem.us_per_access": _ratio(out["mem.access_s"],
                                    calls.get("mem.access", 0)) * 1e6,
        "mem.l1_miss_rate": _ratio(
            total("l1_misses"), total("l1_misses") + total("l1_hits")),
        "mem.l2_misses": total("l2_misses"),
        "mem.c2c_transfers": total("c2c"),
        "mem.dram_bytes": total("dram_bytes"),
        "workload.inject_wait_p50_cycles": (percentile(inject, 50)
                                            if inject else 0),
        "workload.admit_wait_p50_cycles": (percentile(admit, 50)
                                           if admit else 0),
        "workload.admission_high_water": max(
            j["admission_high_water"] for j in jobs),
        "exec.cache_hit_ratio": _ratio(hits, lookups),
        "exec.queue_wait_p50_s": percentile([j["queue_s"] for j in ref],
                                            50),
        "exec.pool_busy_frac": _ratio(
            sum(j["run_s"] for j in ref),
            untraced["pool_jobs"] * untraced["cold_s"]),
        "exec.pickle_bytes": untraced["pickle_bytes"],
        "cpu.job_s": engine_s("cpu"),
        "arch.flex_job_s": engine_s("flex"),
        "arch.lite_job_s": engine_s("lite"),
        "trace.overhead_frac": wall(traced) / wall(untraced) - 1.0,
        "trace.unattributed_s": wall(traced) - sum(
            seconds for seconds, _ in traced["layers"].values()),
    })
    return out


def speed_factor(point: dict) -> float:
    """How much slower than nominal the host ran in one interpreter:
    its median reference-kernel time over :data:`speedref.NOMINAL_S`."""
    return median(point["ref_s"]) / speedref.NOMINAL_S


def at_nominal_speed(p: dict) -> dict:
    """A pass (or set-up probe) with every host time divided by its own
    :func:`speed_factor`, as a host running at nominal speed would have
    measured it.  Counts, sizes and simulated values are unchanged."""
    f = speed_factor(p)
    out = dict(p, setup_s=p["setup_s"] / f)
    if "cold_s" not in p:
        return out
    out.update(
        cold_s=p["cold_s"] / f,
        warm_s=p["warm_s"] / f,
        warm_rep_s=[t / f for t in p["warm_rep_s"]],
        jobs=[dict(j, run_s=j["run_s"] / f, queue_s=j["queue_s"] / f)
              for j in p["jobs"]])
    for key in ("layers", "warm_layers"):
        if key in p:
            out[key] = {span: (seconds / f, calls)
                        for span, (seconds, calls) in p[key].items()}
    return out


def digest(p: dict) -> str:
    """Combined record digest of one pass: its jobs' record digests in
    label order."""
    text = "\n".join(f"{j['label']}:{j['digest']}"
                     for j in sorted(p["jobs"], key=lambda j: j["label"]))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def checks(passes: List[dict]) -> Tuple[int, int]:
    """``(attempted, failed)`` over a run's passes.

    Attempted: every cold job and every warm read-back.  Failed: jobs
    that failed or did not verify, warm read-backs that simulated or
    returned a record other than the cold one, and every job of a pass
    whose records differ from the first pass's (a traced pass included,
    since tracing must not move simulated state).
    """
    attempted = failed = 0
    reference = {j["label"]: j["digest"] for j in passes[0]["jobs"]}
    for p in passes:
        attempted += len(p["jobs"]) + len(p["failed_jobs"])
        attempted += p["warm_served"]
        failed += len(p["failed_jobs"])
        failed += p["warm_simulated"] + p["warm_mismatched"]
        mine = {j["label"]: j["digest"] for j in p["jobs"]}
        failed += sum(1 for label, d in reference.items()
                      if mine.get(label) != d)
    return attempted, failed
