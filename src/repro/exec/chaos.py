"""Deterministic host-fault injection for the execution layer.

``repro.resil`` injects faults into the *simulated machine*; this
module injects faults into the *host* that runs simulations — the
failure modes :mod:`repro.exec.robust` exists to absorb:

* **worker kills** — a pool worker hard-exits mid-job
  (``os._exit``), breaking the ``ProcessPoolExecutor`` exactly the way
  an OOM kill does, which exercises pool supervision and rebuild;
* **cache corruption** — a just-written cache entry is truncated or
  bit-flipped (an even, seeded mix of the two), modelling a crashed
  writer or disk error, which exercises checksum verification and
  quarantine;
* **transient I/O errors and slow I/O** — cache reads/writes and
  ledger appends sporadically raise ``OSError`` or stall for
  :data:`SLOW_IO_SECONDS`, which exercises the best-effort guards at
  those boundaries.

Every decision is a pure function of ``(seed, site, key, occurrence)``
via :func:`~repro.exec.robust.unit_roll` — no host entropy — so a
chaos run is replayable.  The contract the soak suite
(``tests/exec/test_chaos.py``) enforces: a chaos run **completes** and
its records are **bit-identical** to a fault-free serial reference,
because every injected host fault is either resubmitted, quarantined,
or degraded around, and the simulation itself is a pure function of
the spec.

Worker kills only apply to real pool workers; the runner's in-process
rounds (``jobs=1``, and the degraded fallback after repeated pool loss)
are never killed — they are the path of last resort that guarantees
completion.

Wiring: pass one plan to :class:`~repro.exec.runner.JobRunner`
(``chaos=``), :class:`~repro.exec.cache.ResultCache` (``chaos=``), and
:class:`~repro.obs.ledger.RunLedger` (``chaos=``); the CLI's
``--chaos SEED`` does all three with :meth:`ChaosPlan.default` rates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Tuple, Union

from repro.exec.robust import unit_roll

#: Rates used by ``--chaos SEED`` and :meth:`ChaosPlan.default` —
#: aggressive enough that a 30-job batch sees every fault class.
DEFAULT_RATES = dict(kill_rate=0.15, corrupt_rate=0.25,
                     io_error_rate=0.1, slow_io_rate=0.1)

#: Latency one injected slow I/O adds, in seconds.
SLOW_IO_SECONDS = 0.002


class ChaosError(OSError):
    """The injected transient I/O error (a plain ``OSError`` subclass,
    so every guard that tolerates real I/O errors tolerates it)."""


@dataclass
class ChaosPlan:
    """Seeded host-fault plan; every rate defaults to zero (off).

    ``sleep`` is injectable so tests can fake slow I/O without real
    wall-clock cost.  Occurrence counters make transient errors
    *transient*: the second read of the same path draws a fresh
    decision, so a later read can succeed.
    """

    seed: int = 0
    kill_rate: float = 0.0          # P(pool worker hard-exits mid-job)
    corrupt_rate: float = 0.0       # P(cache entry corrupted after write)
    io_error_rate: float = 0.0      # P(OSError on cache/ledger I/O)
    slow_io_rate: float = 0.0       # P(injected latency on cache I/O)
    sleep: Callable[[float], None] = time.sleep
    _counts: Dict[Tuple[str, str], int] = field(
        default_factory=dict, repr=False, compare=False)

    injected: int = field(default=0, repr=False, compare=False)

    @classmethod
    def default(cls, seed: int = 0) -> "ChaosPlan":
        """The CI/soak plan: every fault class on at default rates."""
        return cls(seed=seed, **DEFAULT_RATES)

    # ------------------------------------------------------------------
    def _roll(self, site: str, key: str) -> float:
        """Fresh deterministic draw for the n-th (site, key) event."""
        n = self._counts.get((site, key), 0)
        self._counts[(site, key)] = n + 1
        return unit_roll(self.seed, site, key, n)

    # -- worker kills ---------------------------------------------------
    def kill_worker(self, digest: str, submission: int) -> bool:
        """Should the pool worker for this submission hard-exit?

        Keyed on the spec digest and its submission index (not the
        occurrence counter), so the decision is independent of pool
        scheduling order — a resubmitted victim draws a fresh roll.
        """
        if not self.kill_rate:
            return False
        hit = unit_roll(self.seed, "kill", digest,
                        submission) < self.kill_rate
        if hit:
            self.injected += 1
        return hit

    # -- cache boundary -------------------------------------------------
    def cache_read(self, path: str) -> None:
        """Called before a cache entry read; may stall or raise."""
        self._io_site("cache-read", path)

    def cache_write(self, path: str) -> None:
        """Called before a cache entry write; may stall or raise."""
        self._io_site("cache-write", path)

    def _io_site(self, site: str, key: str) -> None:
        if self.slow_io_rate and self._roll(site + "-slow",
                                            key) < self.slow_io_rate:
            self.injected += 1
            self.sleep(SLOW_IO_SECONDS)
        if self.io_error_rate and self._roll(site + "-err",
                                             key) < self.io_error_rate:
            self.injected += 1
            raise ChaosError(f"chaos: injected transient I/O error "
                             f"({site} {key})")

    def cache_written(self, path: Union[str, Path]) -> None:
        """Called after an entry lands on disk; may corrupt the file.

        Models a crashed writer / bad sector: the entry exists but its
        bytes are wrong, which only checksum verification can catch.
        """
        if not self.corrupt_rate:
            return
        path = Path(path)
        if self._roll("cache-corrupt", path.name) >= self.corrupt_rate:
            return
        try:
            data = path.read_bytes()
        except OSError:
            return
        if not data:
            return
        self.injected += 1
        # Truncate half the damaged entries; flip one bit in the rest.
        if unit_roll(self.seed, "corrupt-mode", path.name) < 0.5:
            data = data[:max(1, len(data) // 2)]
        else:
            offset = int(unit_roll(self.seed, "corrupt-at",
                                   path.name) * len(data))
            offset = min(offset, len(data) - 1)
            # Half the flips set the high bit: cache entries are ASCII
            # JSON, so 0x80 yields invalid UTF-8 and exercises the
            # decode-error path, not just structural JSON damage.
            mask = (0x80 if unit_roll(self.seed, "corrupt-bit",
                                      path.name) < 0.5 else 0x40)
            data = (data[:offset] + bytes([data[offset] ^ mask])
                    + data[offset + 1:])
        try:
            path.write_bytes(data)
        except OSError:
            pass

    # -- ledger boundary ------------------------------------------------
    def ledger_append(self) -> None:
        """Called before a ledger append; may raise a transient error."""
        if self.io_error_rate and self._roll("ledger-err",
                                             "append") < self.io_error_rate:
            self.injected += 1
            raise ChaosError("chaos: injected transient ledger error")

    def __repr__(self) -> str:
        return (f"ChaosPlan(seed={self.seed}, kill={self.kill_rate:g}, "
                f"corrupt={self.corrupt_rate:g}, "
                f"io_err={self.io_error_rate:g}, "
                f"injected={self.injected})")
