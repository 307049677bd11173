"""Shared configuration for the experiment benchmarks.

Each benchmark target regenerates one of the paper's tables or figures and
prints it (run with ``-s`` to see the rendered output).  By default the
experiments run in *quick* mode (reduced workload sizes, identical shapes)
so the whole suite finishes in minutes; set ``REPRO_FULL=1`` for the
full-size runs used in EXPERIMENTS.md.
"""

import os

import pytest


@pytest.fixture(scope="session")
def quick() -> bool:
    """False when REPRO_FULL=1: run paper-size workloads."""
    return os.environ.get("REPRO_FULL", "0") != "1"


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
