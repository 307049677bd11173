"""Clocks and statistics shared by the ParallelXL models.

Clock-domain conversions (the paper's 200 MHz fabric / 400 MHz
accelerator L1 / 1 GHz CPU and L2) are handled by :class:`ClockDomain`;
counters, histograms and utilization trackers live in
:mod:`repro.sim.stats`.  The discrete-event kernel itself is
:mod:`repro.kernel`.
"""

from repro.sim.timing import ClockDomain
from repro.sim.stats import Counter, Histogram, StatsRegistry, UtilizationTracker

__all__ = [
    "ClockDomain",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "UtilizationTracker",
]
