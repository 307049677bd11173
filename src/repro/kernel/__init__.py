"""Simulation-kernel boundary: the interface and its one engine.

The kernel is the one layer allowed to know how events are represented
and dispatched.  Everything above it (``arch``, ``sched``, ``obs``,
``resil``, ``exec``, the CLI) programs against
:class:`~repro.kernel.interface.SimKernel` and obtains an engine via
:func:`make_engine`, which always builds :class:`FastEngine`.  Tests
substitute their own oracle engine for it; see ``docs/KERNEL.md``.
"""

from __future__ import annotations

from repro.kernel.fast import FastChannel, FastEngine
from repro.kernel.interface import (
    ChannelBase,
    Event,
    Get,
    Park,
    Process,
    SimKernel,
    SimulationError,
    Timeout,
    validated_delay,
)

#: Read by perfbench (``perfbench/measure.py``), which hangs its
#: ``kernel_arch`` span on the engine class's ``run``.
BACKENDS = {"fast": FastEngine}


def resolve_backend(name=None) -> str:
    """Name of the engine :func:`make_engine` builds; ``name`` is ignored.

    Read by perfbench (``perfbench/measure.py``), which prints it with
    every result and looks the engine class up in :data:`BACKENDS`.
    """
    return "fast"


def make_engine() -> SimKernel:
    """Build the simulation kernel."""
    return FastEngine()


__all__ = [
    "BACKENDS",
    "ChannelBase",
    "Event",
    "FastChannel",
    "FastEngine",
    "Get",
    "Park",
    "Process",
    "SimKernel",
    "SimulationError",
    "Timeout",
    "make_engine",
    "resolve_backend",
    "validated_delay",
]
