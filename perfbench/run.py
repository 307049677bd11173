"""Benchmark entry point: time one workload end to end, or trace it.

Run from the repository root::

    python3 perfbench/run.py --workload flex16_tasks --seed 1 \\
        --seconds 20 --trace 0

Each pass runs in a fresh interpreter (``perfbench.measure``) with
``PYTHONHASHSEED`` set from the pass index, so every run, of this
commit or another, sees the same sequence of hash layouts.  With
``--trace 0`` the run makes a fixed number of passes (derived from
``--seconds``) and reports the end-to-end metrics; with ``--trace 1``
it makes one untraced and one traced pass under the same hash seed and
reports the per-layer metrics.  Host times are divided by each
interpreter's host-speed factor (``perfbench/speedref.py``) before they
are aggregated; the unscaled values are printed too.  Human-readable
lines come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics, speedref  # noqa: E402
from perfbench.stats import beyond, highest_reportable  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Scratch space for caches, ledgers and span files (git-ignored).
WORK_DIR = ".perfbench-work"

#: A run must finish well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0

#: Extra interpreters per timed run that only set up, so ``setup_s``
#: is a median over passes plus these.
SETUP_PROBES = 5


class PassError(RuntimeError):
    """A measuring interpreter failed or ran out of time."""


def run_pass(workload: str, seed: int, index: int, traced: bool,
             smoke: bool, deadline: float, setup_only: bool = False
             ) -> dict:
    """Measure one pass in a fresh interpreter; return its raw dict."""
    work = ROOT / WORK_DIR / f"{workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, "-m", "perfbench.measure",
           "--workload", workload, "--seed", str(seed),
           "--work-dir", str(work)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--trace",
                "--spans", str(ROOT / WORK_DIR / f"spans-{workload}.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED=str(index + 1))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.perf_counter()
    # Its own process group, so the pass and any pool workers it forks
    # can be stopped together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassError(f"pass {index} of {workload} ran out of time")
    finally:
        if proc.poll() is None:     # timed out, or this process is ending
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise PassError(f"pass {index} of {workload} exited with "
                        f"{proc.returncode}:\n{err[-4000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - spawned
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, passes: List[dict], values: dict, raw: dict,
           units: dict, factors: List[float], attempted: int,
           failed: int) -> None:
    """Human-readable lines (everything but the last line of output)."""
    env = passes[0]["env"]
    print(f"workload {name}: {len(passes)} passes, "
          f"jobs per pass: {len(passes[0]['jobs'])}")
    print("env: " + " ".join(f"{k}={v if v is not None else '-'}"
                             for k, v in env.items()))
    digests = sorted({metrics.digest(p) for p in passes})
    print(f"record digest: {' '.join(digests)}"
          + ("" if len(digests) == 1 else "  (PASSES DIFFER)"))
    print(f"failed_frac: {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} checks)")
    print(f"host speed: factor {min(factors):.3f}-{max(factors):.3f} "
          f"over {len(factors)} interpreters (reference kernel time / "
          f"nominal {speedref.NOMINAL_S} s); host times below are divided "
          f"by their interpreter's factor")
    for metric, unit in units.items():
        print(f"  {metric:34s} {_fmt(values[metric]):>14s} {unit}")
    print("as measured, before host-speed scaling:")
    for metric, unit in units.items():
        if raw[metric] != values[metric]:
            print(f"  {metric:34s} {_fmt(raw[metric]):>14s} {unit}")
    if units is metrics.END_TO_END:
        print("simulated (deterministic, per-layer in the traced run):")
        for metric, value in metrics.simulated(passes[0]).items():
            print(f"  {metric:34s} {_fmt(value):>14s} "
                  f"{metrics.PER_LAYER[metric]}")
    jobs = passes[0]["jobs"]
    latencies = sum(len(j["latencies"]) for j in jobs)
    for what, n in (("job_p*_s", len(jobs)),
                    ("sim_latency_p*_cycles", latencies)):
        top = highest_reportable(n)
        print(f"samples: {what} over n={n}, {beyond(n, 90)} beyond p90; "
              f"highest percentile with >=10 beyond: "
              f"{'none' if top is None else f'p{top}'}")


def trace_table(traced: dict) -> None:
    """Self time per span, whole traced pass and warm phase alone."""
    total = metrics.wall(traced)
    warm = traced["warm_layers"]
    print(f"traced wall {total:.4f} s (warm phase "
          f"{traced['warm_s']:.4f} s); self time per span:")
    rows = sorted(traced["layers"].items(), key=lambda kv: -kv[1][0])
    for span, (seconds, calls) in rows:
        warm_s = warm.get(span, (0.0, 0))[0]
        print(f"  {span:26s} {seconds:10.4f} s {100 * seconds / total:6.2f}%"
              f"  warm {warm_s:9.4f} s  calls {calls}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and two passes (self-test)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so run_pass stops the running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    workload = WORKLOADS[args.workload]
    count = 2 if args.smoke else workload.passes(args.seconds)
    plan = ([(0, False), (0, True)] if args.trace
            else [(k, False) for k in range(count)])
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    wanted = 0 if args.trace or args.smoke else SETUP_PROBES
    passes: List[dict] = []
    probes: List[dict] = []

    def probe() -> None:
        probes.append(run_pass(args.workload, args.seed, len(probes),
                               False, False, deadline, setup_only=True))

    try:
        # Probes go between passes, so host-speed samples cover the run.
        for index, traced in plan:
            passes.append(run_pass(args.workload, args.seed, index, traced,
                                   args.smoke, deadline))
            if len(probes) < wanted:
                probe()
        while len(probes) < wanted:
            probe()
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = metrics.checks(passes)

    def evaluate(ps: List[dict], pr: List[dict]) -> dict:
        if args.trace:
            return metrics.per_layer(ps[0], ps[1])
        return metrics.end_to_end(ps, [p["setup_s"] for p in ps + pr])

    raw = evaluate(passes, probes)
    values = evaluate([metrics.at_nominal_speed(p) for p in passes],
                      [metrics.at_nominal_speed(p) for p in probes])
    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    if args.trace:
        trace_table(metrics.at_nominal_speed(passes[1]))
    report(args.workload, passes, values, raw, units,
           [metrics.speed_factor(p) for p in passes + probes], attempted,
           failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
