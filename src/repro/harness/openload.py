"""Open-system experiments: arrival-rate sweeps over workload sources.

The paper's evaluation is closed-system — one root task, run to
completion.  A deployed accelerator is an *open* system: the host keeps
offloading jobs while earlier ones are still in flight.  :func:`run_open`
measures that regime: it sweeps a stochastic arrival process over a set
of rates (or replays a recorded trace) and reports the throughput /
tail-latency curve — the saturation behaviour that closed-system speedup
numbers cannot show.

Every point is an ordinary :class:`~repro.exec.JobSpec` carrying the
workload spec (docs/WORKLOADS.md), executed through a
:class:`~repro.exec.JobRunner` — so open-system sweeps parallelise,
cache, resume, and land in the run ledger exactly like every other
experiment in the suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import ConfigError
from repro.exec import JobRunner, make_spec
from repro.harness.common import ExperimentResult
from repro.obs.report import job_summary
from repro.workload import DEFAULT_ARRIVAL_SEED, load_trace

#: Default arrival rates swept (jobs per kilocycle).
DEFAULT_RATES = (1.0, 2.0, 4.0, 8.0)


def parse_tenants(text: str) -> List[Dict]:
    """Parse a ``"name:weight,name:weight"`` CLI tenant string.

    The weight is optional (``"gold,silver"`` gives both weight 1).
    """
    tenants: List[Dict] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition(":")
        if not name:
            raise ConfigError(f"empty tenant name in {text!r}")
        try:
            tenants.append(
                dict(name=name, weight=int(weight) if weight else 1))
        except ValueError:
            raise ConfigError(
                f"tenant weight must be an integer: {part!r}") from None
    if not tenants:
        raise ConfigError(f"no tenants in {text!r}")
    return tenants


def _workloads(rates: Sequence[float], num_jobs: int, seed: int,
               tenants: Optional[List[Dict]], window: Optional[int],
               trace: Optional[str]) -> List[Tuple[str, Dict]]:
    """(label, workload-spec-dict) per experiment point."""
    common: Dict = {}
    if tenants is not None:
        common["tenants"] = tenants
    if window is not None:
        common["window"] = window
    if trace is not None:
        arrivals = load_trace(trace)
        return [("trace", dict(kind="trace",
                               arrivals=[[t, name] for t, name in arrivals],
                               **common))]
    return [
        (f"{rate:g}", dict(kind="stochastic", rate=rate,
                           num_jobs=num_jobs, seed=seed, **common))
        for rate in rates
    ]


def run_open(
    benchmark: str = "fib",
    num_pes: int = 8,
    engine: str = "flex",
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = DEFAULT_ARRIVAL_SEED,
    num_jobs: int = 64,
    tenants: Optional[List[Dict]] = None,
    window: Optional[int] = None,
    trace: Optional[str] = None,
    quick: bool = True,
    max_cycles: Optional[int] = None,
    runner: Optional[JobRunner] = None,
) -> ExperimentResult:
    """Sweep arrival rates (or replay ``trace``) and tabulate the curve.

    Each row is one point: offered rate, completed jobs, total cycles,
    achieved throughput (jobs per kilocycle), and the nearest-rank
    p50/p95/p99/max of the per-job arrival-to-completion latency.  With
    more than one tenant, per-tenant rows follow each point.  The raw
    per-point :func:`~repro.obs.report.job_summary` dicts land in
    ``result.data`` keyed by the point label.
    """
    runner = runner or JobRunner()
    points = _workloads(rates, num_jobs, seed, tenants, window, trace)
    specs = [
        make_spec(benchmark, num_pes, engine=engine, quick=quick,
                  max_cycles=max_cycles, workload=workload)
        for _, workload in points
    ]
    records = runner.run_checked(specs)

    headers = ["rate", "tenant", "jobs", "cycles", "jobs/kcycle",
               "p50", "p95", "p99", "max"]
    rows: List[List[str]] = []
    data: Dict = {"points": {}}
    for (label, _), record in zip(points, records):
        stats = job_summary(record.jobs)
        data["points"][label] = {
            "cycles": record.cycles,
            "summary": stats,
        }
        groups = [("all", stats["all"])]
        if len(stats["tenants"]) > 1:
            groups += list(stats["tenants"].items())
        for tenant, s in groups:
            tput = (1000.0 * s["jobs"] / record.cycles
                    if record.cycles else 0.0)
            rows.append([
                label, tenant, str(s["jobs"]), str(record.cycles),
                f"{tput:.3f}", f"{s['p50']:.0f}", f"{s['p95']:.0f}",
                f"{s['p99']:.0f}", f"{s['max']:.0f}",
            ])

    source = (f"trace {trace}" if trace
              else f"stochastic arrivals, seed {seed:#x}")
    notes = [
        f"{benchmark} on {engine}{num_pes}; {source}; "
        "latency = arrival to completion, cycles (readback excluded)",
    ]
    if window is not None:
        notes.append(f"admission window {window} "
                     "(earliest arrival first)")
    return ExperimentResult(
        experiment="open",
        title="open-system throughput / tail latency",
        headers=headers,
        rows=rows,
        notes=notes,
        data=data,
    )
