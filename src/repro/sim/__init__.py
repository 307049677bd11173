"""Clock domains shared by the ParallelXL models.

Clock-domain conversions (the paper's 200 MHz fabric / 400 MHz
accelerator L1 / 1 GHz CPU and L2) are handled by :class:`ClockDomain`.
The discrete-event kernel itself is :mod:`repro.kernel`.
"""

from repro.sim.timing import ClockDomain

__all__ = ["ClockDomain"]
