"""Fault-injection campaign: sweep fault rates, measure recovery.

For each fault rate the campaign runs one fault-free baseline plus one
seeded run per requested seed, all with the recovery knobs enabled, and
classifies every run:

* **recovered** — the run completed and the result verified against the
  benchmark reference (injected faults were fully absorbed);
* **diagnosed** — the run terminated with a structured error
  (:class:`~repro.core.exceptions.DeadlockError` from the watchdog,
  :class:`~repro.core.exceptions.DataCorruptionError`, an exhaustion
  error) — degraded but *loud*, never a silent wrong answer.

A wrong result that verification catches would be a third, unacceptable
class; the campaign raises immediately if one appears, because the
recovery mechanisms are designed to be exact (idempotent re-execution,
sequence-number dedup, ECC) — any silent corruption is a bug.

The report shows per-rate recovery rate, injected/recovered fault
counts, and the cycle overhead versus the fault-free baseline (same
knobs, no plan), reusing the ``repro.obs`` event log when telemetry is
requested.  Everything is deterministic: (benchmark, config, rate, seed)
fully fixes the fault timeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.exec import JobFailedError, JobRunner, make_spec
from repro.harness.common import ExperimentResult
from repro.resil.faults import FaultSpec

#: Default per-opportunity fault rates swept by ``repro faults``.
DEFAULT_RATES = (0.0005, 0.002, 0.01)

#: Seeds per rate (campaign runs ``len(seeds)`` fault runs per rate).
DEFAULT_SEEDS = (0xBEEF, 0x1234, 0x7A11)

#: Recovery configuration used for every campaign run.  Park mode is off
#: because fault injection draws decisions on real steal attempts; the
#: watchdog bounds any unrecovered stall.
RECOVERY_OVERRIDES = dict(
    park_idle_pes=False,
    steal_retry=True,
    arg_retransmit=True,
    pe_fault_retry=True,
    pstore_ecc=True,
    pstore_backpressure=True,
    spawn_overflow_inline=True,
    watchdog_interval=100_000,
)


def run_fault_campaign(
    benchmark: str = "fib",
    num_pes: int = 4,
    rates: Sequence[float] = DEFAULT_RATES,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    quick: bool = True,
    params: Optional[dict] = None,
    runner: Optional[JobRunner] = None,
) -> ExperimentResult:
    """Sweep ``rates`` x ``seeds`` fault-injected runs of ``benchmark``.

    The benchmark worker must be idempotent (pure w.r.t. workload data),
    since transient-PE recovery re-executes tasks; ``fib`` and ``queens``
    qualify.  Returns an :class:`ExperimentResult` whose ``data`` dict
    carries the machine-readable outcome (used by the CI smoke step).
    """
    runner = runner or JobRunner()
    baseline_spec = make_spec(benchmark, num_pes, quick=quick,
                              params=params, **RECOVERY_OVERRIDES)
    fault_specs = {
        (rate, seed): make_spec(benchmark, num_pes, quick=quick,
                                params=params,
                                faults=FaultSpec.uniform(rate, seed=seed),
                                **RECOVERY_OVERRIDES)
        for rate in rates for seed in seeds
    }
    outcomes = runner.run([baseline_spec] + list(fault_specs.values()))
    baseline = outcomes[0]
    if not baseline.ok:
        raise JobFailedError(baseline)
    by_cell = dict(zip(fault_specs, outcomes[1:]))

    headers = ["rate", "runs", "recovered", "diagnosed", "faults inj",
               "faults rec", "cycle overhead"]
    rows: List[List[str]] = []
    runs: List[Dict] = []
    for rate in rates:
        recovered = diagnosed = injected = absorbed = 0
        cycle_sum = 0
        for seed in seeds:
            outcome = by_cell[(rate, seed)]
            record: Dict = {"rate": rate, "seed": seed}
            if outcome.ok:
                recovered += 1
                cycle_sum += outcome.cycles
                record["outcome"] = "recovered"
                record["cycles"] = outcome.cycles
                record["counters"] = {
                    k: v for k, v in outcome.counters.items()
                    if k.startswith("faults.")
                }
                injected += outcome.counters.get("faults.injected", 0)
                absorbed += outcome.counters.get("faults.recovered", 0)
            elif outcome.parallelxl:
                # Diagnosed termination: degraded, but loud and typed.
                diagnosed += 1
                record["outcome"] = "diagnosed"
                record["error"] = f"{outcome.error_type}: {outcome.message}"
                record["kind"] = outcome.kind
            else:
                # A diagnosed termination is a deterministic sim-error;
                # anything else (a host crash, a wrong answer caught by
                # verification) is not a campaign datum — it is either
                # transient (re-run by --resume) or a bug.
                raise JobFailedError(outcome)
            runs.append(record)
        overhead = "-"
        if recovered and baseline.cycles:
            mean_cycles = cycle_sum / recovered
            overhead = f"{(mean_cycles / baseline.cycles - 1) * 100:+.1f}%"
        rows.append([
            f"{rate:g}", str(len(seeds)), str(recovered), str(diagnosed),
            str(injected), str(absorbed), overhead,
        ])
    unrecovered = sum(1 for r in runs if r["outcome"] != "recovered")
    notes = [
        f"benchmark={benchmark} pes={num_pes} quick={quick}; every run "
        "either recovers with a verified result or terminates with a "
        "diagnostic error",
        f"baseline (recovery knobs on, no faults): {baseline.cycles} cycles",
    ]
    return ExperimentResult(
        experiment="faults",
        title="fault-injection campaign: recovery rate and cycle overhead",
        headers=headers,
        rows=rows,
        notes=notes,
        data={
            "benchmark": benchmark,
            "num_pes": num_pes,
            "baseline_cycles": baseline.cycles,
            "rates": list(rates),
            "seeds": list(seeds),
            "runs": runs,
            "unrecovered": unrecovered,
        },
    )
