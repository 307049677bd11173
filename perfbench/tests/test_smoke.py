"""Reduced-size runs of every workload through the real entry point."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    human = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines[:-1]), name
    assert "backend=" in human and "code_salt=" in human
    if trace:
        assert result["metrics"]["trace.unattributed_s"]["value"] >= 0
    else:
        for name in END_TO_END:
            assert result["metrics"][name]["value"] > 0, name


def test_fails_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flex16_tasks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _processes_with(marker: str) -> list:
    found = []
    for entry in Path("/proc").iterdir():
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if marker.encode() in cmdline:
            found.append(entry.name)
    return found


def test_terminating_a_run_stops_its_passes():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fig7_campaign",
         "--seed", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    marker = f"fig7_campaign-{proc.pid}-"
    deadline = time.monotonic() + 30
    while not _processes_with(marker) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _processes_with(marker), "no pass started"
    proc.terminate()
    assert proc.wait(timeout=30) != 0
    assert _processes_with(marker) == []
