"""The simulation-kernel boundary: request types and the `SimKernel` API.

Everything above this layer — ``arch`` (PEs, networks, pstores, the
wakeup scheduler), ``sched`` policies, ``obs`` telemetry, ``resil``
fault injection, the execution harness — talks to the simulator through
the interface defined here and nothing else.  The simulator's engine,
:class:`repro.kernel.fast.FastEngine`, implements :class:`SimKernel`;
so does the test suite's reference engine, which tests substitute for
it to compare every observable of a run (see ``docs/KERNEL.md``).

The three operations
--------------------

1. **Scheduling with virtual ancestry.**  :meth:`SimKernel.schedule`
   calls ``fn(*args)`` ``delay`` ticks from now, so a per-message
   callback needs no closure; events are ordered by the composite key
   ``(time, scheduled_at, parent_scheduled_at, seq)``.
   The two ancestry fields are redundant for normally scheduled events
   (``seq`` alone sorts them) but are load-bearing for
   :meth:`SimKernel.resume_at`, which re-inserts an event that a paused
   component *would have* scheduled in the past: passing the virtual
   ancestry makes it order against same-tick events exactly as it would
   have, had it been scheduled on time.

2. **Process stepping.**  :meth:`SimKernel.process` registers a
   generator; the kernel drives it by calling ``send`` and dispatching
   on the yielded request — :class:`Timeout`, :class:`Event`,
   :class:`Park`, or another :class:`Process` (join).

3. **Park/wakeup.**  A process yields :class:`Park` to suspend holding
   *no* kernel resources; the park issuer keeps the :class:`Process`
   and later calls :meth:`SimKernel.resume_at` with a virtual ancestry
   derived from :attr:`SimKernel.current_key`.

All delays are integral ticks.  Non-integral delays raise
:class:`ValueError` rather than truncating silently — a ``2.5``-cycle
latency is a modelling bug, not a rounding decision the kernel should
make.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


def validated_delay(delay: Any) -> int:
    """Return ``delay`` as an int tick count, rejecting bad values.

    Negative delays and non-integral delays (``2.5``) both raise
    :class:`ValueError`; ``2.0`` is accepted as ``2``.
    """
    d = int(delay)
    if d != delay:
        raise ValueError(f"non-integral delay: {delay!r}")
    if d < 0:
        raise ValueError(f"negative delay: {delay}")
    return d


class Timeout:
    """Request to sleep for a fixed number of ticks."""

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        self.delay = validated_delay(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay})"


class Event:
    """One-shot event that processes can wait on.

    Triggering an event resumes every waiter with the trigger payload.  An
    event may only be triggered once; waiting on an already-triggered event
    resumes immediately.
    """

    __slots__ = ("engine", "_waiters", "triggered", "payload", "name")

    def __init__(self, engine: "SimKernel", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._waiters: List["Process"] = []
        self.triggered = False
        self.payload: Any = None

    def trigger(self, payload: Any = None) -> None:
        """Fire the event, resuming all waiters at the current time."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.payload = payload
        for proc in self._waiters:
            self.engine._schedule_resume(proc, 0, payload)
        self._waiters.clear()

    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.engine._schedule_resume(proc, 0, self.payload)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"Event({self.name!r}, {state})"


class Park:
    """Request to suspend the process until an external wakeup.

    Unlike :class:`Timeout` or :class:`Event`, a parked process holds no
    kernel resources at all — no pending event, no waiter list.  The issuer
    (e.g. the accelerator's park registry) is responsible for keeping a
    reference to the :class:`Process` and resuming it with
    :meth:`SimKernel.resume_at` when the condition it sleeps on changes.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "Park()"


class Process:
    """A running generator process managed by the kernel.

    ``send`` is the generator's bound ``send`` method, cached at
    creation so the kernel can step the process without an attribute
    chain per event.
    """

    __slots__ = ("engine", "generator", "send", "name", "done", "result",
                 "_joiners")

    def __init__(self, engine: "SimKernel", generator: Generator,
                 name: str) -> None:
        self.engine = engine
        self.generator = generator
        self.send = generator.send
        self.name = name
        self.done = False
        self.result: Any = None
        self._joiners: List["Process"] = []

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        for joiner in self._joiners:
            self.engine._schedule_resume(joiner, 0, result)
        self._joiners.clear()

    def _add_joiner(self, proc: "Process") -> None:
        if self.done:
            self.engine._schedule_resume(proc, 0, self.result)
        else:
            self._joiners.append(proc)

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


#: ``scheduled_at`` sentinel for events scheduled before the first event
#: executes (setup code runs outside any event).
_PRE_RUN = -1


class SimKernel:
    """Abstract discrete-event kernel with an integer tick clock.

    Engines implement :meth:`schedule`, :meth:`resume_at`,
    :meth:`process`, :meth:`run`, :meth:`_schedule_resume`,
    :attr:`pending_events` and :attr:`finished`; the shared state
    (clock, sequence counter, telemetry hook, current-event ancestry),
    the :class:`Event` factory and the introspection surface live here.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._seq = 0
        self._live_processes = 0
        # Optional telemetry sink (repro.obs); record-only, so attaching
        # one cannot change event ordering or simulated time.
        self.telemetry = None
        # Ancestry of the currently executing event: the tick it was
        # scheduled at, and the tick *that* event was scheduled at.
        self._cur_s_at = _PRE_RUN
        self._cur_p_s_at = _PRE_RUN
        # Time of the last event actually executed by run() — unlike
        # `now`, never padded forward to a run's `until` horizon.
        self.last_event_time: int = 0

    # ------------------------------------------------------------------
    # Scheduling primitives (engine-implemented)
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., None],
                 *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` ticks from now."""
        raise NotImplementedError

    def resume_at(self, proc: Process, time: int, value: Any,
                  s_at: int, p_s_at: int) -> None:
        """Resume a parked ``proc`` at absolute ``time`` with ``value``.

        ``s_at``/``p_s_at`` give the *virtual* ancestry of the resumption:
        the tick at which the event would have been scheduled had the
        process never parked, and the scheduling tick of that scheduler in
        turn.  Same-tick ordering against other events then matches the
        never-parked execution (up to three-deep scheduling-tick ties,
        which no longer occur once ancestries diverge).
        """
        raise NotImplementedError

    def process(self, generator: Generator, name: str = "proc") -> Process:
        """Register ``generator`` as a process and start it immediately."""
        raise NotImplementedError

    def _schedule_resume(self, proc: Process, delay: int, value: Any) -> None:
        """Schedule ``proc`` to be stepped with ``value`` after ``delay``."""
        raise NotImplementedError

    def run(self, until: Optional[int] = None) -> int:
        """Run until no event is pending (or until tick ``until``).

        Returns the final simulation time.  A bounded run always ends
        with ``now == until``, whether it stopped early or ran out of
        events; :attr:`last_event_time` records the tick of the last
        event actually executed.  Remaining events stay
        pending (visible via :attr:`pending_events`); calling
        :meth:`run` again resumes where the previous call stopped.
        """
        raise NotImplementedError

    def _check_resume_at(self, proc: Process, time: int,
                         s_at: int, p_s_at: int) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot resume {proc.name!r} at {time} (now {self.now})"
            )
        if not (p_s_at <= s_at <= time):
            raise SimulationError(
                f"inconsistent resume ancestry {p_s_at} <= {s_at} <= {time}"
            )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a new one-shot :class:`Event`."""
        return Event(self, name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_key(self) -> Tuple[int, int, int]:
        """``(time, scheduled_at, parent_scheduled_at)`` of the executing
        event — the ordering key a wakeup scheduler compares virtual
        timelines against."""
        return (self.now, self._cur_s_at, self._cur_p_s_at)

    @property
    def current_ancestry(self) -> Tuple[int, int]:
        """``(scheduled_at, parent_scheduled_at)`` of the executing event."""
        return (self._cur_s_at, self._cur_p_s_at)

    @property
    def pending_events(self) -> int:
        """Number of scheduled events not yet executed (parked processes
        hold none).  Inside an event, the executing one is not counted."""
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        """True when no event is pending."""
        raise NotImplementedError

    @property
    def live_processes(self) -> int:
        """Number of processes that have started but not finished."""
        return self._live_processes

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(now={self.now}, "
                f"pending={self.pending_events})")
