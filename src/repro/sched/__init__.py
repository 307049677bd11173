"""Pluggable scheduling policies for the accelerator engines.

Select a policy with ``AcceleratorConfig(steal_policy=...)`` (CLI:
``repro run --steal-policy ...``); ``repro policies`` sweeps the
built-ins across benchmarks and PE counts.  See ``docs/SCHEDULING.md``
for the interface contract and how to add a policy.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.sched.base import PEScheduler, SchedulingPolicy
from repro.sched.hierarchical import HierarchicalPolicy
from repro.sched.occupancy import OccupancyPolicy
from repro.sched.random import RandomPolicy
from repro.sched.stealhalf import StealHalfPolicy

#: Registry of built-in policies, keyed by ``AcceleratorConfig.steal_policy``.
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    policy.name: policy
    for policy in (RandomPolicy, HierarchicalPolicy, OccupancyPolicy,
                   StealHalfPolicy)
}

#: Valid ``steal_policy`` values (config validation imports this).
POLICY_NAMES = tuple(POLICIES)


def make_policy(accel) -> SchedulingPolicy:
    """Instantiate the policy named by ``accel.config.steal_policy``."""
    name = accel.config.steal_policy
    try:
        cls = POLICIES[name]
    except KeyError:
        from repro.core.exceptions import ConfigError

        raise ConfigError(
            f"unknown steal policy {name!r} (choose from "
            f"{', '.join(POLICY_NAMES)})"
        ) from None
    return cls(accel)


__all__ = [
    "PEScheduler",
    "SchedulingPolicy",
    "RandomPolicy",
    "HierarchicalPolicy",
    "OccupancyPolicy",
    "StealHalfPolicy",
    "POLICIES",
    "POLICY_NAMES",
    "make_policy",
]
