"""Deterministic fault injection for the timed accelerator engines.

A :class:`FaultPlan` is a seeded stream of fault decisions drawn from a
dedicated :class:`~repro.core.lfsr.LFSR16` — deliberately *not* the
steal-victim LFSRs, so attaching a plan never perturbs victim selection —
consulted at fixed points of the simulation:

==================  ====================================================
decision            consulted at
==================  ====================================================
``steal_fault``     after a steal request's network traversal, before the
                    victim probe (drop = the request was lost in flight,
                    so no task can be lost with it; delay = extra cycles
                    on the response).  The faulted request wraps a probe
                    the scheduling policy (``repro.sched``) already
                    issued: the victim pick consumed the PE's scheduling
                    LFSR, this plan's decision draws from the fault
                    stream, and a dropped request feeds nothing back to
                    the policy (no ``note_steal``: no response came) —
                    the two streams never interleave
``arg_fault``       when a PE issues an argument message (drop /
                    duplicate / delay in the argument network)
``pe_fault``        at task-execution start (transient PE failure)
``poison_fault``    per P-Store argument delivery (stored-state
                    corruption, caught by the parity check)
==================  ====================================================

Decisions for a fault kind with rate zero draw nothing, so a plan with
all rates at zero is bit-identical to no plan at all (asserted by
``tests/resil/test_null_invariant.py``).  Each enabled decision consumes
exactly one LFSR step per opportunity, making every fault timeline a
pure function of ``(workload, config, FaultSpec)``.

Fault injection composes with the recovery knobs on
:class:`~repro.arch.config.AcceleratorConfig` (``steal_retry``,
``arg_retransmit``, ``pe_fault_retry``, ``pstore_ecc``, ...): with them
enabled the run degrades gracefully and completes with a verified
result; with them at their fail-fast defaults an injected fault either
raises immediately (poison, duplicate delivery) or stalls the machine in
a way the progress watchdog converts into a diagnostic
:class:`~repro.core.exceptions.DeadlockError`.

Interaction with the parked-PE wakeup scheduler: the wakeup replay
elides exactly the idle polls steal faults are drawn on, so a plan can
only be attached when ``park_idle_pes=False`` (enforced by
:func:`attach_faults`).  Recovery re-execution assumes *idempotent*
workers — re-running ``Worker.execute`` for the same task must record
the same operation stream — which :func:`op_signature` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from repro.core.context import (
    ComputeOp,
    MemOp,
    SendArgOp,
    SpawnOp,
    SuccessorOp,
)
from repro.core.exceptions import ConfigError
from repro.core.lfsr import LFSR16

#: Fault-kind labels (also the telemetry ``fault`` event payloads).
STEAL_DROP = "steal-drop"
STEAL_DELAY = "steal-delay"
ARG_DROP = "arg-drop"
ARG_DUP = "arg-dup"
ARG_DELAY = "arg-delay"
PE_TRANSIENT = "pe-transient"
PSTORE_POISON = "pstore-poison"

FAULT_KINDS = (STEAL_DROP, STEAL_DELAY, ARG_DROP, ARG_DUP, ARG_DELAY,
               PE_TRANSIENT, PSTORE_POISON)


@dataclass(frozen=True)
class FaultSpec:
    """Per-kind fault rates (probability per opportunity) and magnitudes."""

    steal_drop_rate: float = 0.0
    steal_delay_rate: float = 0.0
    steal_delay_cycles: int = 24
    arg_drop_rate: float = 0.0
    arg_dup_rate: float = 0.0
    arg_delay_rate: float = 0.0
    arg_delay_cycles: int = 24
    pe_fault_rate: float = 0.0
    pstore_poison_rate: float = 0.0
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_rate"):
                rate = getattr(self, f.name)
                if not 0.0 <= rate <= 1.0:
                    raise ConfigError(
                        f"{f.name} must be in [0, 1]: {rate}"
                    )
        if not 0 < (self.seed & 0xFFFF):
            raise ConfigError(f"fault seed must be nonzero 16-bit: {self.seed}")

    @property
    def any_enabled(self) -> bool:
        return any(
            getattr(self, f.name) > 0.0
            for f in fields(self) if f.name.endswith("_rate")
        )

    @classmethod
    def uniform(cls, rate: float, seed: int = 0x5EED,
                include_arg_drop: bool = True) -> "FaultSpec":
        """Every fault kind at the same per-opportunity ``rate``.

        ``include_arg_drop=False`` leaves argument drops out — the one
        kind that is unrecoverable without ``arg_retransmit``.
        """
        return cls(
            steal_drop_rate=rate,
            steal_delay_rate=rate,
            arg_drop_rate=rate if include_arg_drop else 0.0,
            arg_dup_rate=rate,
            arg_delay_rate=rate,
            pe_fault_rate=rate,
            pstore_poison_rate=rate,
            seed=seed,
        )


class FaultPlan:
    """One run's deterministic fault stream plus injection bookkeeping."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._lfsr = LFSR16(spec.seed & 0xFFFF)
        #: Injected fault counts per kind.
        self.injected: Dict[str, int] = {}
        #: Successful recovery counts per kind.
        self.recovered: Dict[str, int] = {}
        # Integer thresholds: a decision hits when the next LFSR state
        # (uniform over 1..65535) is at or below the threshold.
        period = LFSR16.PERIOD
        self._t = {
            STEAL_DROP: round(spec.steal_drop_rate * period),
            STEAL_DELAY: round(spec.steal_delay_rate * period),
            ARG_DROP: round(spec.arg_drop_rate * period),
            ARG_DUP: round(spec.arg_dup_rate * period),
            ARG_DELAY: round(spec.arg_delay_rate * period),
            PE_TRANSIENT: round(spec.pe_fault_rate * period),
            PSTORE_POISON: round(spec.pstore_poison_rate * period),
        }

    # -- decision stream -------------------------------------------------
    def _hit(self, kind: str) -> bool:
        threshold = self._t[kind]
        if threshold <= 0:
            return False  # disabled kinds consume no LFSR state
        if self._lfsr.next() > threshold:
            return False
        self.injected[kind] = self.injected.get(kind, 0) + 1
        return True

    def steal_fault(self) -> Optional[Tuple[str, int]]:
        """Fault on one steal attempt: ``("drop", 0)``, ``("delay", n)``
        or ``None``."""
        if self._hit(STEAL_DROP):
            return ("drop", 0)
        if self._hit(STEAL_DELAY):
            return ("delay", self.spec.steal_delay_cycles)
        return None

    def arg_fault(self) -> Optional[Tuple[str, int]]:
        """Fault on one argument message: drop, duplicate, delay or None."""
        if self._hit(ARG_DROP):
            return ("drop", 0)
        if self._hit(ARG_DUP):
            return ("dup", 0)
        if self._hit(ARG_DELAY):
            return ("delay", self.spec.arg_delay_cycles)
        return None

    def pe_fault(self) -> bool:
        """Transient PE failure at this task-execution start?"""
        return self._hit(PE_TRANSIENT)

    def poison_fault(self) -> bool:
        """Corrupt the P-Store slot this delivery writes?"""
        return self._hit(PSTORE_POISON)

    # -- bookkeeping ------------------------------------------------------
    def note_recovery(self, kind: str) -> None:
        self.recovered[kind] = self.recovered.get(kind, 0) + 1

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def total_recovered(self) -> int:
        return sum(self.recovered.values())

    def counters(self) -> Dict[str, int]:
        """Flat counter dict for :class:`~repro.arch.result.RunResult`."""
        out = {"faults.injected": self.total_injected,
               "faults.recovered": self.total_recovered}
        for kind, count in sorted(self.injected.items()):
            out[f"faults.injected.{kind}"] = count
        for kind, count in sorted(self.recovered.items()):
            out[f"faults.recovered.{kind}"] = count
        return out

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.spec.seed:#x}, "
                f"injected={self.total_injected}, "
                f"recovered={self.total_recovered})")


def attach_faults(accel, plan: FaultPlan) -> FaultPlan:
    """Wire ``plan`` into a freshly built accelerator.

    Must run before ``run()``.  Requires ``park_idle_pes=False``: the
    wakeup scheduler's replay elides exactly the idle steal attempts the
    plan draws decisions on, so the two features compose only by keeping
    every attempt real.
    """
    if accel._started:
        raise ConfigError("attach a fault plan before the accelerator runs")
    if accel.park_registry is not None:
        raise ConfigError(
            "fault injection requires park_idle_pes=False: the parked-PE "
            "wakeup replay elides the idle steal attempts fault decisions "
            "are drawn on"
        )
    accel.faults = plan
    for pstore in getattr(accel, "pstores", ()):
        pstore.faults = plan
    return plan


def op_signature(ops: List) -> List[Tuple]:
    """Continuation-independent fingerprint of a recorded op stream.

    Used to re-check an idempotent re-execution against the worker
    model: the retried attempt must record the same operations as the
    faulted attempt, modulo the pending-entry ids its continuations got
    (the shadow attempt allocates placeholder entries).  Spawned tasks
    and sent values may embed continuations, so they are compared by
    type/shape rather than value.
    """
    sig: List[Tuple] = []
    for op in ops:
        if isinstance(op, ComputeOp):
            sig.append(("compute", op.cycles))
        elif isinstance(op, MemOp):
            sig.append(("mem", op.addr, op.nbytes, op.is_write,
                        op.scratchpad))
        elif isinstance(op, SpawnOp):
            sig.append(("spawn", op.task.task_type, len(op.task.args)))
        elif isinstance(op, SendArgOp):
            sig.append(("send", op.cont.slot, type(op.value).__name__))
        elif isinstance(op, SuccessorOp):
            sig.append(("successor", op.njoin))
        else:  # pragma: no cover - future op kinds fail loudly
            sig.append((type(op).__name__,))
    return sig
