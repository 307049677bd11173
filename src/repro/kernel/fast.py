"""The simulation kernel: slot records, direct dispatch, tick buckets.

Events are ordered by the key ``(time, scheduled_at,
parent_scheduled_at, seq)`` (see :mod:`repro.kernel.interface`).  The
obvious implementation is one heap entry and one closure per event;
the test suite keeps it as a reference engine, and the golden suites
and trace pins hold this one to its results bit for bit.  This engine
attacks the per-event constant factor four ways:

* **Slot-based event records.**  Events are plain tuples
  ``(s_at, p_s_at, seq, code, a, b)`` where ``code`` selects the action
  (:data:`_STEP` resumes process ``a`` with value ``b``, :data:`_CALL`
  invokes callback ``a``, :data:`_DELIVER` lands item ``b`` on channel
  ``a``).  No closure is allocated per event, and record comparisons
  short-circuit at the unique ``seq`` before reaching the
  non-comparable payload fields.

* **Batched same-tick execution (tick buckets).**  Instead of one heap
  entry per event, events live in per-tick buckets — a dict mapping
  ``time`` to a list of records sorted by ``(s_at, p_s_at, seq)`` —
  and a small heap orders only the tick numbers.  Heap traffic is paid
  once per populated tick rather than once per event; within a tick
  the run loop walks the bucket by index.  Sortedness is maintained
  cheaply: a normally scheduled record almost always sorts after the
  bucket's current tail (``s_at`` is the monotone current time) so a
  single tail comparison picks append; the rare out-of-order insert —
  a :meth:`resume_at` with past virtual ancestry, or a normal schedule
  landing behind such an insert — pays a ``bisect.insort``.  An insert
  into the bucket currently being drained is clamped to land after the
  cursor, which is exactly where a single event heap would pop it.

* **Direct dispatch.**  The run loop switches on the integer ``code``
  and on ``request.__class__ is Timeout`` instead of walking an
  ``isinstance`` chain through an extra ``_step``/``_dispatch`` call
  pair; the generator's bound ``send`` is cached on the
  :class:`~repro.kernel.interface.Process` record.

* **Run-ahead (sole-actor batching).**  When a process yields
  :class:`Timeout` and its resumption — keyed
  ``(now + delay, now, s_at)`` — would sort strictly before every
  pending record, nothing else can observe or perturb the interval, so
  the kernel advances the clock and ancestry in place and calls
  ``send`` again without touching the buckets at all.  A serial chain
  (the idle-PE worst case) then runs as a tight ``send`` loop.  The
  check is re-evaluated after every step because the generator body
  may create new events or wake parked processes mid-send, and it is
  suppressed when the resumption would cross a ``run(until=...)``
  horizon so bounded runs stop and resume exactly at each horizon.

Run-ahead skips allocating ``seq`` numbers for the elided round-trips.
That is safe: sequence numbers are not observable — only the relative
order of records matters, which is preserved — and the park/wakeup
tie-break compares chain histories and park order, never ``seq``.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

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

#: Event-record action codes (slot 3 of a record).
_STEP = 0     # resume process a with value b
_CALL = 1     # invoke callback a
_DELIVER = 2  # land item b on channel a


class FastChannel(ChannelBase):
    """Channel delivering through a slot record."""

    __slots__ = ()

    def _schedule_delivery(self, delay: int, item: Any) -> None:
        engine = self.engine
        engine._seq += 1
        engine._insert(
            engine.now + delay,
            (engine.now, engine._cur_s_at, engine._seq, _DELIVER, self, item),
        )


class FastEngine(SimKernel):
    """Discrete-event kernel with slot records and tick buckets."""

    channel_type = FastChannel

    def __init__(self) -> None:
        super().__init__()
        # time -> records sorted by (s_at, p_s_at, seq); _times orders
        # the populated ticks.  _bucket/_cursor expose the drain point
        # so same-tick inserts land after the executing record.
        self._buckets: Dict[int, List[Tuple]] = {}
        self._times: List[int] = []
        self._bucket: Optional[List[Tuple]] = None
        self._cursor = 0

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def _insert(self, t: int, rec: Tuple) -> None:
        buckets = self._buckets
        b = buckets.get(t)
        if b is None:
            buckets[t] = [rec]
            heapq.heappush(self._times, t)
        elif rec > b[-1]:
            b.append(rec)
        elif b is self._bucket:
            insort(b, rec, lo=self._cursor + 1)
        else:
            insort(b, rec)

    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` ``delay`` ticks from now."""
        self._seq += 1
        self._insert(
            self.now + validated_delay(delay),
            (self.now, self._cur_s_at, self._seq, _CALL, fn, None),
        )

    def resume_at(self, proc: Process, time: int, value: Any,
                  s_at: int, p_s_at: int) -> None:
        self._check_resume_at(proc, time, s_at, p_s_at)
        self._seq += 1
        self._insert(time, (s_at, p_s_at, self._seq, _STEP, proc, value))

    def process(self, generator: Generator, name: str = "proc") -> Process:
        proc = Process(self, generator, name)
        self._live_processes += 1
        if self.telemetry is not None:
            self.telemetry.proc_start(name)
        self._schedule_resume(proc, 0, None)
        return proc

    def _schedule_resume(self, proc: Process, delay: int, value: Any) -> None:
        self._seq += 1
        self._insert(
            self.now + delay,
            (self.now, self._cur_s_at, self._seq, _STEP, proc, value),
        )

    def _dispatch_slow(self, proc: Process, request: Any) -> None:
        # Everything but a plain Timeout (those are inlined in run()).
        if isinstance(request, Timeout):
            self._schedule_resume(proc, request.delay, None)
        elif isinstance(request, Get):
            request.channel._add_getter(proc)
        elif isinstance(request, Event):
            request._add_waiter(proc)
        elif isinstance(request, Process):
            request._add_joiner(proc)
        elif isinstance(request, Park):
            pass  # suspended; the park issuer resumes via resume_at
        else:
            raise SimulationError(
                f"process {proc.name!r} yielded unsupported request {request!r}"
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        events = 0
        times = self._times
        buckets = self._buckets
        pop_time = heapq.heappop
        push_time = heapq.heappush
        while times:
            t = times[0]
            if until is not None and t > until:
                break
            pop_time(times)
            if t < self.now:
                raise SimulationError("time went backwards")
            self.now = t
            bucket = buckets[t]
            self._bucket = bucket
            i = 0
            try:
                while i < len(bucket):
                    s_at, p_s_at, _, code, a, value = bucket[i]
                    self._cursor = i
                    self._cur_s_at = s_at
                    self._cur_p_s_at = p_s_at
                    if code == _STEP:
                        send = a.send
                        time = t
                        while True:
                            try:
                                request = send(value)
                            except StopIteration as stop:
                                self._live_processes -= 1
                                if self.telemetry is not None:
                                    self.telemetry.proc_end(a.name)
                                a._finish(getattr(stop, "value", None))
                                break
                            if request.__class__ is Timeout:
                                t_next = time + request.delay
                                # Run ahead only when the resumption,
                                # keyed (t_next, time, s_at), sorts
                                # strictly before every pending record
                                # (ties lose to a pending record's
                                # smaller seq) and stays inside the
                                # run horizon.
                                ahead = (i + 1 == len(bucket)
                                         and (until is None
                                              or t_next <= until))
                                if ahead and times:
                                    ht = times[0]
                                    if ht < t_next:
                                        ahead = False
                                    elif ht == t_next:
                                        nrec = buckets[ht][0]
                                        n0 = nrec[0]
                                        if n0 < time or (n0 == time
                                                         and nrec[1] <= s_at):
                                            ahead = False
                                if not ahead:
                                    # Inlined _insert: this is the
                                    # hottest push site.
                                    self._seq += 1
                                    nrec = (time, s_at, self._seq,
                                            _STEP, a, None)
                                    b = buckets.get(t_next)
                                    if b is None:
                                        buckets[t_next] = [nrec]
                                        push_time(times, t_next)
                                    elif nrec > b[-1]:
                                        b.append(nrec)
                                    elif b is bucket:
                                        insort(b, nrec, lo=i + 1)
                                    else:
                                        insort(b, nrec)
                                    break
                                # Sole actor until t_next: step in place.
                                events += 1
                                if (max_events is not None
                                        and events >= max_events):
                                    raise SimulationError(
                                        f"exceeded max_events={max_events}")
                                self.now = t_next
                                self._cur_s_at = time
                                self._cur_p_s_at = s_at
                                s_at = time
                                time = t_next
                                value = None
                                continue
                            self._dispatch_slow(a, request)
                            break
                    elif code == _CALL:
                        a()
                    else:  # _DELIVER
                        a._deliver(value)
                    events += 1
                    if max_events is not None and events >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}")
                    i += 1
            except BaseException:
                # Keep the unexecuted suffix pending so the engine
                # stays inspectable after a mid-bucket failure.
                del bucket[: i + 1]
                if bucket:
                    heapq.heappush(times, t)
                else:
                    del buckets[t]
                self._bucket = None
                raise
            del buckets[t]
            self._bucket = None
        if events:
            self.last_event_time = self.now
        # A bounded run always ends at its horizon, whether it stopped
        # early or drained the heap.
        if until is not None and until > self.now:
            self.now = until
        return self.now

    # ------------------------------------------------------------------
    # Introspection (bucket-shaped)
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        # The bucket being drained still holds its executed records and
        # the executing one, up to and including the cursor.
        pending = sum(len(b) for b in self._buckets.values())
        if self._bucket is not None:
            pending -= self._cursor + 1
        return pending

    @property
    def finished(self) -> bool:
        return self.pending_events == 0
