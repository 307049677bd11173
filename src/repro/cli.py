"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run <benchmark>`` — simulate one benchmark on one engine
  (``--trace out.json`` writes a Perfetto-loadable Chrome trace,
  ``--stats`` dumps the run's counters).
* ``report <benchmark>`` — instrumented run + full telemetry report
  (latency decomposition, time series, critical path).  A ``run`` or
  ``report`` stopped by ``--max-cycles`` or ``--watchdog`` prints
  ``repro: error:``, the diagnosis and the machine snapshot, and exits 1.
* ``table1|table2|table3|table4|table5`` — regenerate a paper table.
* ``fig6|fig7|fig8|fig9`` — regenerate a paper figure's data.
* ``ablations`` — run the design-choice ablations.
* ``policies`` — scheduling-policy ablation: sweep the ``repro.sched``
  policies (``--smoke`` for the CI subset, ``--out`` to save JSON).
* ``faults`` — fault-injection campaign: sweep fault rates with the
  recovery mechanisms enabled, report recovery rate and overhead.
* ``dse`` — two-tier design-space exploration (docs/DSE.md): calibrate
  the analytical model, sweep a full cartesian grid in closed form,
  keep the Pareto frontier under ``--budget-lut``/``--budget-watts``,
  re-validate only the frontier with cycle simulations, and report the
  per-point analytical-vs-simulated error.
* ``sweep`` — generic configuration sweep (``--pes``, ``--l1``,
  ``--hops`` axes) over one benchmark, through the execution layer.
* ``open`` — open-system experiment (docs/WORKLOADS.md): sweep
  stochastic arrival rates (``--rates``) or replay a recorded trace
  (``--trace``) and report the throughput / tail-latency curve, with
  optional multi-tenant admission control (``--tenants``,
  ``--window``).
* ``ledger`` — query the persistent run ledger
  (docs/OBSERVABILITY.md): recent runs, slowest jobs, per-campaign
  cache-hit trend.
* ``cache verify|repair`` — validate every result-cache entry
  (parse, checksum, spec-digest key); ``repair`` quarantines the
  corrupt ones (docs/EXECUTION.md, "Failure handling & recovery").
* ``profile-report`` — aggregate the ``--profile`` cProfile captures
  into one ranked cross-job hot-function table.
* ``list`` — list benchmarks and experiments.

``run`` and ``report`` accept ``--steal-policy`` to select the
work-stealing policy for a single simulation (docs/SCHEDULING.md).
An invalid input to any command (a PE count, job count or cycle budget
below 1, an engine/benchmark pair, a bad ``--arrivals``) prints one
``repro: error:`` line and exits 2.

All experiment commands accept ``--full`` for paper-size workloads
(default: quick sizes with the same shapes) plus the execution-layer
options (docs/EXECUTION.md): ``--jobs N`` fans simulations out over N
worker processes (bit-identical to serial), ``--cache-dir``/
``--no-cache`` control the content-addressed result cache,
``--out PATH`` saves the result JSON, and ``--expect-cached`` exits 1
if anything actually simulated (CI cache-integrity gate).  Host-side
observability rides along (docs/OBSERVABILITY.md): ``--metrics PATH``
exports the campaign's metrics registry (JSON, or Prometheus text for
``.prom``/``.txt``), ``--profile`` captures one cProfile per simulated
job, and the run ledger records every completion unless ``--no-ledger``
(or ``--no-cache``) is given.

Robustness options (docs/EXECUTION.md, "Failure handling & recovery"):
``--resume`` checkpoints every completion to a campaign manifest under
``<cache-dir>/manifests`` and skips jobs the manifest already holds —
surviving SIGKILL even with ``--no-cache``; ``--chaos SEED`` arms the
deterministic host-fault injection harness (worker kills, cache
corruption, transient I/O errors) for soak testing it, the pool
supervision and the cache's self-healing.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.sched import POLICY_NAMES
from repro.workers import PAPER_BENCHMARKS


def _experiment_commands():
    from repro.harness.ablations import run_all_ablations
    from repro.harness.fig6 import run_fig6
    from repro.harness.fig7 import run_fig7
    from repro.harness.fig8 import run_fig8
    from repro.harness.fig9 import run_fig9
    from repro.harness.memstyles import run_memstyles
    from repro.harness.sizing import run_sizing
    from repro.harness.table4 import run_table4
    from repro.harness.table5 import run_table5
    from repro.harness.tables123 import run_table1, run_table2, run_table3

    return {
        "table1": lambda quick, runner: [run_table1()],
        "table2": lambda quick, runner: [run_table2()],
        "table3": lambda quick, runner: [run_table3()],
        "table4": lambda quick, runner: [run_table4(quick=quick,
                                                    runner=runner)],
        "table5": lambda quick, runner: [run_table5()],
        "fig6": lambda quick, runner: [run_fig6(quick=quick,
                                                runner=runner)],
        "fig7": lambda quick, runner: [run_fig7(quick=quick,
                                                runner=runner)],
        "fig8": lambda quick, runner: [run_fig8(quick=quick,
                                                runner=runner)],
        "fig9": lambda quick, runner: [run_fig9(quick=quick,
                                                runner=runner)],
        "ablations": lambda quick, runner: list(
            run_all_ablations(quick=quick, runner=runner).values()
        ),
        "memstyles": lambda quick, runner: [run_memstyles(quick=quick,
                                                          runner=runner)],
        "sizing": lambda quick, runner: [run_sizing(quick=quick,
                                                    runner=runner)],
    }


def _make_runner(args):
    """Build the :class:`~repro.exec.JobRunner` an experiment uses.

    Observability wiring (docs/OBSERVABILITY.md): the run ledger is on
    by default whenever the cache is (same root, ``--no-ledger`` opts
    out), a metrics registry exists only when ``--metrics PATH`` asked
    for an export, and ``--profile`` points the runner at
    ``<cache-root>/profiles`` for per-job cProfile captures.

    Robustness wiring (docs/EXECUTION.md): ``--resume`` points the
    runner at ``<cache-root>/manifests`` for campaign checkpoints (the
    manifest dir uses the cache *root* even under ``--no-cache`` —
    resuming without a cache is the point); ``--chaos SEED`` threads
    one seeded :class:`~repro.exec.ChaosPlan` through the runner, the
    cache, and the ledger.
    """
    from repro.exec import JobRunner, ResultCache, StderrProgress
    from repro.exec.cache import default_cache_dir

    cache_root = args.cache_dir or default_cache_dir()
    chaos = None
    if getattr(args, "chaos", None) is not None:
        from repro.exec import ChaosPlan

        chaos = ChaosPlan.default(args.chaos)
    cache = None if args.no_cache else ResultCache(cache_root,
                                                   chaos=chaos)
    ledger = None
    if cache is not None and not args.no_ledger:
        from repro.obs.ledger import RunLedger, default_ledger_dir

        ledger = RunLedger(default_ledger_dir(cache_root), chaos=chaos)
    metrics = None
    if args.metrics:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    profile_dir = None
    if args.profile:
        from repro.obs.profile import default_profile_dir

        profile_dir = default_profile_dir(cache_root)
    manifest_dir = None
    if getattr(args, "resume", False):
        from repro.exec.robust import default_manifest_dir

        manifest_dir = default_manifest_dir(cache_root)
    return JobRunner(jobs=args.jobs, cache=cache,
                     progress=StderrProgress(ledger=ledger),
                     metrics=metrics, ledger=ledger,
                     profile_dir=profile_dir, chaos=chaos,
                     manifest_dir=manifest_dir)


def _finish_experiment(args, runner, results) -> int:
    """Shared tail of every experiment command: save, gate, exit code."""
    if args.out:
        from repro.harness.results_io import save_result

        if len(results) == 1:
            paths = [save_result(results[0], args.out)]
        else:
            # Multi-result commands (ablations) fan out to one file per
            # result, suffixed with the experiment's short name.
            from pathlib import Path

            base = Path(args.out)
            paths = []
            for result in results:
                slug = "".join(c if c.isalnum() else "-"
                               for c in result.experiment.lower())
                target = base.with_name(
                    f"{base.stem}-{slug.strip('-')}{base.suffix}"
                )
                paths.append(save_result(result, target))
        for path in paths:
            print(f"saved: {path}")
    stats = runner.stats
    if stats.submitted:
        line = (f"jobs: {stats.submitted} submitted, "
                f"{stats.deduplicated} deduplicated, "
                f"{stats.cached} cached, {stats.executed} simulated")
        if stats.resumed:
            line += f", {stats.resumed} resumed"
        if stats.failed:
            line += f", {stats.failed} failed"
        if stats.quarantined:
            line += f", {stats.quarantined} quarantined"
        if stats.pool_restarts:
            line += f", {stats.pool_restarts} pool restart(s)"
        print(line)
        if stats.run_seconds or stats.cache_seconds:
            print(f"time: {stats.run_seconds:.2f}s simulating, "
                  f"{stats.cache_seconds:.3f}s cache i/o "
                  f"(summed per-job; see `repro ledger` for the split)")
    if getattr(args, "metrics", None) and runner.metrics is not None:
        path = runner.metrics.write(args.metrics)
        print(f"metrics: wrote {path}")
    if args.expect_cached and stats.uncached > 0:
        print(f"error: --expect-cached but {stats.uncached} job(s) "
              f"simulated or failed ({stats.executed} simulated, "
              f"{stats.failed} failed; cache cold or stale)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_list() -> int:
    print("benchmarks:", ", ".join(PAPER_BENCHMARKS + ("fib",)))
    print("experiments:", ", ".join(sorted(_experiment_commands())))
    return 0


def _run_one(args, *, telemetry: bool):
    from repro.exec import make_spec, simulate

    kwargs = dict(engine=args.engine, quick=not args.full,
                  max_cycles=args.max_cycles)
    if args.watchdog is not None:
        kwargs["watchdog_interval"] = args.watchdog
    if args.steal_policy is not None:
        kwargs["steal_policy"] = args.steal_policy
    if args.arrivals is not None:
        from repro.core.exceptions import ConfigError
        from repro.workload import DEFAULT_ARRIVAL_SEED

        parts = args.arrivals.split(":")
        try:
            if len(parts) not in (2, 3):
                raise ValueError
            kwargs["workload"] = dict(
                kind="stochastic",
                rate=float(parts[0]),
                num_jobs=int(parts[1]),
                seed=int(parts[2], 0) if len(parts) == 3
                else DEFAULT_ARRIVAL_SEED,
            )
        except ValueError:
            raise ConfigError(
                f"--arrivals must be RATE:N[:SEED], got {args.arrivals!r}"
            ) from None
    return simulate(make_spec(args.benchmark, args.pes, **kwargs),
                    telemetry=telemetry)


def _cmd_run(args) -> int:
    from repro.core.exceptions import DeadlockError

    telemetry = bool(args.trace)
    try:
        result = _run_one(args, telemetry=telemetry)
    except DeadlockError as exc:
        # The diagnosis and its snapshot lines are the whole story.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    print(f"{result.label}: verified, {result.cycles} cycles "
          f"({result.ns / 1000:.1f} us @ {result.clock_mhz:.0f} MHz), "
          f"{result.tasks_executed} tasks, {result.total_steals} steals, "
          f"{result.utilization():.0%} busy")
    if args.stats:
        print("counters:")
        for name in sorted(result.counters):
            print(f"  {name} = {result.counters[name]}")
    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(
            result.telemetry, args.trace,
            clock_mhz=result.clock_mhz, end_cycle=result.cycles,
            label=result.label,
        )
        print(f"trace: wrote {args.trace} "
              f"(load in https://ui.perfetto.dev)")
    return 0


def _cmd_report(args) -> int:
    from repro.core.exceptions import DeadlockError
    from repro.obs import render_report, write_chrome_trace

    try:
        result = _run_one(args, telemetry=True)
    except DeadlockError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    print(render_report(result.telemetry, cycles=result.cycles,
                        clock_mhz=result.clock_mhz, label=result.label,
                        epochs=args.epochs))
    if result.jobs and len(result.jobs) > 1:
        from repro.obs import render_job_summary

        print()
        print(render_job_summary(result.jobs, cycles=result.cycles,
                                 clock_mhz=result.clock_mhz))
    if args.trace:
        write_chrome_trace(
            result.telemetry, args.trace,
            clock_mhz=result.clock_mhz, end_cycle=result.cycles,
            label=result.label,
        )
        print(f"\ntrace: wrote {args.trace} "
              f"(load in https://ui.perfetto.dev)")
    return 0


def _cmd_policies(args) -> int:
    from repro.harness.policies import run_policy_ablation

    runner = _make_runner(args)
    result = run_policy_ablation(quick=not args.full, smoke=args.smoke,
                                 runner=runner)
    print(result.render())
    return _finish_experiment(args, runner, [result])


def _cmd_faults(args) -> int:
    from repro.resil.campaign import run_fault_campaign

    kwargs = dict(num_pes=args.pes, quick=not args.full)
    if args.rates:
        kwargs["rates"] = tuple(
            float(r) for r in args.rates.split(",") if r
        )
    if args.seeds:
        kwargs["seeds"] = tuple(
            int(s, 0) for s in args.seeds.split(",") if s
        )
    runner = _make_runner(args)
    result = run_fault_campaign(args.benchmark, runner=runner, **kwargs)
    print(result.render())
    unrecovered = result.data["unrecovered"]
    if unrecovered:
        print(f"\n{unrecovered} run(s) terminated with a diagnostic error "
              "instead of recovering")
    status = _finish_experiment(args, runner, [result])
    if args.require_recovery and unrecovered:
        return 1
    return status


def _cmd_dse(args) -> int:
    from repro.harness.dse import run_dse

    runner = _make_runner(args)
    kwargs = dict(
        benchmark=args.benchmark,
        engine=args.engine,
        quick=not args.full,
        budget_lut=args.budget_lut,
        budget_watts=args.budget_watts,
        max_points=args.points,
        runner=runner,
    )
    if args.pes:
        kwargs["num_pes"] = tuple(
            int(p) for p in args.pes.split(",") if p
        )
    result = run_dse(**kwargs)
    print(result.render())
    print(f"analytical sweep: {result.data['grid_points']} points in "
          f"{result.model_seconds * 1000:.0f} ms of model time")
    return _finish_experiment(args, runner, [result])


def _cmd_sweep(args) -> int:
    from repro.harness.sweep import sweep, tabulate

    runner = _make_runner(args)
    grid = {}
    if args.l1:
        grid["l1_size"] = tuple(
            int(v, 0) for v in args.l1.split(",") if v
        )
    if args.hops:
        grid["net_hop_cycles"] = tuple(
            int(v) for v in args.hops.split(",") if v
        )
    pes = tuple(int(p) for p in args.pes.split(",") if p) or (4,)
    records = sweep(args.benchmark, engine=args.engine, num_pes=pes,
                    quick=not args.full, runner=runner, **grid)
    print(tabulate(records))
    if args.out:
        import json
        from pathlib import Path

        Path(args.out).write_text(
            json.dumps(records, sort_keys=True, indent=1) + "\n"
        )
        print(f"saved: {args.out}")
        args.out = None     # already saved; skip the ExperimentResult path
    return _finish_experiment(args, runner, [])


def _cmd_open(args) -> int:
    from repro.harness.openload import parse_tenants, run_open

    tenants = parse_tenants(args.tenants) if args.tenants else None
    if args.rates:
        rates = tuple(float(r) for r in args.rates.split(",") if r)
    else:
        rates = (args.rate,)
    if args.dump_trace:
        from repro.workload import StochasticSource, Tenant, dump_trace

        source = StochasticSource(
            rate=rates[0], num_jobs=args.num_jobs, seed=args.seed,
            tenants=tuple(Tenant(t["name"], t["weight"])
                          for t in tenants) if tenants else (),
        )
        dump_trace(args.dump_trace, source.arrivals())
        print(f"trace: wrote {args.dump_trace} ({args.num_jobs} arrivals)")
    runner = _make_runner(args)
    result = run_open(
        benchmark=args.benchmark,
        num_pes=args.pes,
        rates=rates,
        seed=args.seed,
        num_jobs=args.num_jobs,
        tenants=tenants,
        window=args.window,
        trace=args.trace,
        quick=not args.full,
        runner=runner,
    )
    print(result.render())
    return _finish_experiment(args, runner, [result])


def _cmd_ledger(args) -> int:
    from repro.obs.ledger import (
        RunLedger,
        default_ledger_dir,
        render_recent,
        render_slowest,
        render_trend,
    )

    ledger = RunLedger(default_ledger_dir(args.cache_dir))
    entries = ledger.entries()
    if not entries:
        print(f"(ledger empty: {ledger.path})")
        return 0
    shown = False
    if args.slowest is not None:
        print("slowest executed jobs:")
        print(render_slowest(entries, args.slowest))
        shown = True
    if args.trend:
        if shown:
            print()
        print("cache-hit trend by campaign session:")
        print(render_trend(entries))
        shown = True
    if args.recent is not None or not shown:
        if shown:
            print()
        print(f"recent runs ({ledger.path}):")
        print(render_recent(entries,
                            15 if args.recent is None else args.recent))
    return 0


def _cmd_cache(args) -> int:
    from repro.exec import ResultCache
    from repro.exec.cache import default_cache_dir

    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.action == "repair":
        valid, moved = cache.repair()
        print(f"cache: {valid} valid entries, {len(moved)} corrupt "
              f"entries quarantined ({cache.root})")
        for path in moved:
            print(f"  quarantined: {path}")
        return 0
    valid, corrupt = cache.verify()
    print(f"cache: {valid} valid entries, {len(corrupt)} corrupt "
          f"({cache.root})")
    for path, reason in corrupt:
        print(f"  corrupt: {path}: {reason}")
    if corrupt:
        print("run `repro cache repair` to quarantine them",
              file=sys.stderr)
        return 1
    return 0


def _cmd_profile_report(args) -> int:
    from repro.obs.profile import (
        default_profile_dir,
        profile_paths,
        render_report,
    )

    paths = profile_paths(default_profile_dir(args.cache_dir))
    print(render_report(paths, top=args.top, sort=args.sort))
    return 0


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for counts: an int >= 0 (exit 2 names the flag)."""
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    """argparse type for sizes: an int >= 1 (exit 2 names the flag)."""
    return _int_at_least(text, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ParallelXL reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and experiments")

    def add_run_args(p):
        p.add_argument("benchmark", choices=PAPER_BENCHMARKS + ("fib",))
        p.add_argument("--engine", default="flex",
                       choices=("flex", "lite", "cpu", "zynq", "zynq-cpu"))
        p.add_argument("--pes", type=int, default=8)
        p.add_argument("--full", action="store_true",
                       help="paper-size workload")
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="write a Perfetto-loadable Chrome trace")
        p.add_argument("--max-cycles", type=int, default=None,
                       metavar="N", help="cycle budget before the run is "
                       "declared deadlocked (default 200M)")
        p.add_argument("--watchdog", type=int, default=None, metavar="N",
                       help="check progress every N cycles and fail early "
                       "with per-PE diagnostics on stagnation")
        p.add_argument("--steal-policy", default=None,
                       choices=POLICY_NAMES,
                       help="work-stealing scheduling policy "
                       "(default: random, the paper's protocol)")
        p.add_argument("--arrivals", default=None, metavar="RATE:N[:SEED]",
                       help="run an open-system stochastic arrival "
                       "stream instead of one closed root: RATE jobs "
                       "per kilocycle, N jobs, optional LFSR seed "
                       "(flex/zynq engines; docs/WORKLOADS.md)")

    run_parser = sub.add_parser("run", help="simulate one benchmark")
    add_run_args(run_parser)
    run_parser.add_argument("--stats", action="store_true",
                            help="print the run's counters")

    report_parser = sub.add_parser(
        "report", help="instrumented run + telemetry report"
    )
    add_run_args(report_parser)
    report_parser.add_argument("--epochs", type=_positive_int, default=16,
                               help="time-series epochs (default 16)")

    def add_exec_args(p):
        """Execution-layer options shared by every experiment command."""
        p.add_argument("--jobs", type=_positive_int, default=None,
                       metavar="N",
                       help="worker processes for simulations "
                       "(default: $REPRO_JOBS or 1; results are "
                       "bit-identical to serial)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
        p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="result-cache directory (default: "
                       "$REPRO_CACHE_DIR or .repro-cache)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="save the result JSON")
        p.add_argument("--expect-cached", action="store_true",
                       help="exit 1 if any job actually simulated "
                       "(CI cache-integrity gate)")
        p.add_argument("--metrics", metavar="PATH", default=None,
                       help="export the campaign's metrics registry "
                       "(.prom/.txt: Prometheus text format, "
                       "otherwise JSON)")
        p.add_argument("--profile", action="store_true",
                       help="run every simulated job under cProfile "
                       "(one capture per job under "
                       "<cache-dir>/profiles; see "
                       "`repro profile-report`)")
        p.add_argument("--no-ledger", action="store_true",
                       help="do not append completions to the run "
                       "ledger (<cache-dir>/ledger/runs.jsonl)")
        p.add_argument("--resume", action="store_true",
                       help="checkpoint completions to a campaign "
                       "manifest (<cache-dir>/manifests) and skip "
                       "jobs it already holds — survives SIGKILL "
                       "even with --no-cache")
        p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                       help="inject deterministic host faults (worker "
                       "kills, cache corruption, transient I/O "
                       "errors) seeded by SEED — soak testing only")

    policies_parser = sub.add_parser(
        "policies", help="scheduling-policy ablation (repro.sched)"
    )
    policies_parser.add_argument("--smoke", action="store_true",
                                 help="CI-sized subset of the sweep")
    policies_parser.add_argument("--full", action="store_true",
                                 help="paper-size workloads")
    add_exec_args(policies_parser)

    faults_parser = sub.add_parser(
        "faults", help="fault-injection campaign (repro.resil)"
    )
    faults_parser.add_argument("benchmark", nargs="?", default="fib",
                               choices=PAPER_BENCHMARKS + ("fib",))
    faults_parser.add_argument("--pes", type=int, default=4)
    faults_parser.add_argument("--rates", default=None, metavar="R,R,...",
                               help="comma-separated per-opportunity fault "
                               "rates (default 0.0005,0.002,0.01)")
    faults_parser.add_argument("--seeds", default=None, metavar="S,S,...",
                               help="comma-separated fault-stream seeds "
                               "(one run per rate x seed)")
    faults_parser.add_argument("--full", action="store_true",
                               help="paper-size workload")
    faults_parser.add_argument("--require-recovery", action="store_true",
                               help="exit 1 unless every run recovered "
                               "(CI smoke gate)")
    add_exec_args(faults_parser)

    dse_parser = sub.add_parser(
        "dse", help="analytical design-space exploration (repro.model)"
    )
    dse_parser.add_argument("benchmark", nargs="?", default="fib",
                            choices=PAPER_BENCHMARKS + ("fib",))
    dse_parser.add_argument("--engine", default="flex",
                            choices=("flex", "lite"))
    dse_parser.add_argument("--pes", default=None, metavar="P,P,...",
                            help="comma-separated PE-count axis "
                            "(default 1,2,4,8,12,16,24,32)")
    dse_parser.add_argument("--points", type=int, default=None,
                            metavar="N", help="cap the analytical grid "
                            "at N evenly-strided points (default: the "
                            "full cartesian product)")
    dse_parser.add_argument("--budget-lut", type=int, default=None,
                            metavar="N", help="drop design points using "
                            "more than N LUTs")
    dse_parser.add_argument("--budget-watts", type=float, default=None,
                            metavar="W", help="drop design points over "
                            "W watts total power")
    dse_parser.add_argument("--full", action="store_true",
                            help="paper-size workload")
    add_exec_args(dse_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="generic configuration sweep (repro.harness.sweep)"
    )
    sweep_parser.add_argument("benchmark", nargs="?", default="fib",
                              choices=PAPER_BENCHMARKS + ("fib",))
    sweep_parser.add_argument("--engine", default="flex",
                              choices=("flex", "lite"))
    sweep_parser.add_argument("--pes", default="2,4", metavar="P,P,...",
                              help="comma-separated PE-count axis "
                              "(default 2,4)")
    sweep_parser.add_argument("--l1", default=None, metavar="B,B,...",
                              help="comma-separated l1_size axis in "
                              "bytes (0x... accepted)")
    sweep_parser.add_argument("--hops", default=None, metavar="C,C,...",
                              help="comma-separated net_hop_cycles axis")
    sweep_parser.add_argument("--full", action="store_true",
                              help="paper-size workload")
    add_exec_args(sweep_parser)

    open_parser = sub.add_parser(
        "open", help="open-system arrival-rate sweep "
        "(repro.harness.openload; docs/WORKLOADS.md)"
    )
    open_parser.add_argument("benchmark", nargs="?", default="fib",
                             help="re-entrant benchmark (default fib)")
    open_parser.add_argument("--pes", type=int, default=8)
    open_parser.add_argument("--rate", type=float, default=4.0,
                             metavar="R", help="arrival rate in jobs "
                             "per kilocycle (default 4.0)")
    open_parser.add_argument("--rates", default=None, metavar="R,R,...",
                             help="comma-separated rate axis "
                             "(overrides --rate)")
    open_parser.add_argument("--seed", type=lambda s: int(s, 0),
                             default=0xACE1, metavar="S",
                             help="arrival-stream LFSR seed "
                             "(default 0xACE1)")
    open_parser.add_argument("--num-jobs", type=int, default=64,
                             metavar="N", help="jobs per point "
                             "(default 64)")
    open_parser.add_argument("--tenants", default=None,
                             metavar="NAME:W,NAME:W",
                             help="tenant mix, e.g. gold:3,silver:1")
    open_parser.add_argument("--window", type=int, default=None,
                             metavar="W", help="admission window: max "
                             "roots in the stealable deque (default: "
                             "no admission control)")
    open_parser.add_argument("--trace", default=None, metavar="PATH",
                             help="replay a JSONL arrival trace "
                             "instead of the stochastic sweep")
    open_parser.add_argument("--dump-trace", default=None, metavar="PATH",
                             help="write the first rate's stochastic "
                             "arrivals as a JSONL trace and continue")
    open_parser.add_argument("--full", action="store_true",
                             help="paper-size workload")
    add_exec_args(open_parser)

    ledger_parser = sub.add_parser(
        "ledger", help="query the run ledger (repro.obs.ledger)"
    )
    ledger_parser.add_argument("--recent", type=_non_negative_int,
                               default=None, metavar="N",
                               help="show the newest N runs (the default "
                               "view, N=15)")
    ledger_parser.add_argument("--slowest", type=_non_negative_int,
                               default=None, metavar="N",
                               help="show the N slowest executed "
                               "(non-cached) jobs")
    ledger_parser.add_argument("--trend", action="store_true",
                               help="per-campaign cache-hit trend")
    ledger_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                               help="cache root holding the ledger "
                               "(default: $REPRO_CACHE_DIR or "
                               ".repro-cache)")

    cache_parser = sub.add_parser(
        "cache", help="verify or repair the result cache "
        "(repro.exec.cache)"
    )
    cache_parser.add_argument("action", choices=("verify", "repair"),
                              help="verify: validate every entry, exit "
                              "1 on corruption; repair: also move "
                              "corrupt entries to quarantine/")
    cache_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                              help="result-cache directory (default: "
                              "$REPRO_CACHE_DIR or .repro-cache)")

    profile_parser = sub.add_parser(
        "profile-report",
        help="aggregate --profile captures (repro.obs.profile)",
    )
    profile_parser.add_argument("--top", type=_non_negative_int,
                                default=20, metavar="N",
                                help="rows to show (default 20)")
    profile_parser.add_argument("--sort", default="cumulative",
                                choices=("cumulative", "tottime"))
    profile_parser.add_argument("--cache-dir", metavar="DIR",
                                default=None, help="cache root holding "
                                "the profile captures")

    for name in _experiment_commands():
        exp_parser = sub.add_parser(name, help=f"regenerate {name}")
        exp_parser.add_argument("--full", action="store_true",
                                help="paper-size workloads")
        add_exec_args(exp_parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.core.exceptions import ConfigError

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        # A bad input (a size, an engine/benchmark pair, --arrivals)
        # exits like an argparse error: one line, status 2.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "policies":
        return _cmd_policies(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "dse":
        return _cmd_dse(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "open":
        return _cmd_open(args)
    if args.command == "ledger":
        return _cmd_ledger(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "profile-report":
        return _cmd_profile_report(args)
    command = _experiment_commands()[args.command]
    runner = _make_runner(args)
    results = command(not args.full, runner)
    for result in results:
        print(result.render())
        print()
    return _finish_experiment(args, runner, results)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
