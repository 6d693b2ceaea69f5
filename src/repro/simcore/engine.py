"""The simulation engine: clock + event loop.

The :class:`Simulator` advances a simulated clock by draining an
:class:`~repro.simcore.events.EventQueue`.  Components schedule callbacks
with :meth:`Simulator.at` / :meth:`Simulator.after`; the engine guarantees:

* the clock never moves backwards,
* events at the same instant fire in (priority, insertion) order,
* a hard event-count limit catches accidental livelock (zero-delay loops).

The run loop is the hottest code in the repository: every simulated
context switch, tick, wakeup and phase completion pays it once.  There
is exactly one delivery loop, hand-flattened — a heap peek and pop per
delivered event, no intermediate ``peek``/``step``/``pop`` call layers —
and ``at``/``after`` construct the :class:`Event` directly instead of
going through ``EventQueue.push``.  ``Simulator.step`` keeps the
composable slow path for external single-stepping; both paths have
identical semantics.
"""

from __future__ import annotations

import heapq
from time import perf_counter as _perf_counter
from typing import Any, Callable, Optional

from repro.simcore.events import Event, EventQueue
from repro.simcore.profile import get_active_profiler

#: Default ceiling on processed events, generous enough for multi-hundred
#: simulated seconds of a 4-CPU machine, small enough to catch livelocks.
DEFAULT_MAX_EVENTS = 50_000_000


class SimulationError(RuntimeError):
    """Raised for engine misuse (time travel, livelock, ...)."""


class Simulator:
    """Discrete-event simulator with a float clock in simulated seconds."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        self.max_events = max_events
        self.events_processed = 0
        self._running = False
        self._stop_requested = False
        #: Per-event-type profiler (``bench --profile``); snapshot of the
        #: module-level active profiler at construction.  When set, the
        #: run loop times every callback.
        self.profiler = get_active_profiler()
        #: Priority of the event whose callback is currently executing
        #: (``None`` outside event delivery).  Fast-forward re-arm walks
        #: use it to order a reinstated chain point that collides with
        #: ``now`` exactly as the serial heap would have.
        self.cur_event_prio: Optional[int] = None
        #: Optional runtime oracle (repro.validate.invariants); receives
        #: every delivered event when validation is enabled.  Must be
        #: installed before :meth:`run` — the loop snapshots it.
        self.oracle: Optional[Any] = None
        #: Same-instant work queued by :meth:`defer`; drained after the
        #: current event's callback returns, before ``stop_when``.  The
        #: list object is stable so the run loop may bind it locally.
        self._deferred: list[Callable[[], Any]] = []

    def defer(self, fn: Callable[[], Any]) -> None:
        """Run ``fn`` once, at the current instant, after the event
        callback now executing returns (and before ``stop_when`` is
        evaluated).  Components use this to *batch* work that several
        actions within one event would otherwise each repeat — e.g. the
        kernel coalesces per-core rate propagation this way.  Deferred
        functions may defer further work; everything drains before the
        clock moves."""
        self._deferred.append(fn)

    def _run_deferred(self) -> None:
        deferred = self._deferred
        while deferred:
            if len(deferred) == 1:
                # Common case (one dirty-core drain per event): skip
                # the defensive snapshot copy.
                fn = deferred[0]
                deferred.clear()
                fn()
                continue
            pending = deferred[:]
            deferred.clear()
            for fn in pending:
                fn()

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``fn`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} (< now {self.now})"
            )
        queue = self.queue
        seq = queue._seq
        ev = Event(time, priority, seq, fn, label, queue)
        queue._seq = seq + 1
        queue._live += 1
        heapq.heappush(queue._heap, (time, priority, seq, ev))
        return ev

    def after(
        self,
        delay: float,
        fn: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``fn`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        queue = self.queue
        seq = queue._seq
        time = self.now + delay
        ev = Event(time, priority, seq, fn, label, queue)
        queue._seq = seq + 1
        queue._live += 1
        heapq.heappush(queue._heap, (time, priority, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` when the queue
        is empty (nothing fired)."""
        t = self.queue.peek_time()
        if t is None:
            return False
        if self.events_processed >= self.max_events:
            raise SimulationError(
                f"event limit {self.max_events} exceeded at t={t}: "
                "likely a zero-delay event livelock"
            )
        ev = self.queue.pop()
        if ev.time < self.now:
            raise SimulationError(
                f"event {ev!r} scheduled in the past (now={self.now})"
            )
        self.now = ev.time
        self.events_processed += 1
        if self.oracle is not None:
            self.oracle.on_event(ev)
        self.cur_event_prio = ev.priority
        try:
            ev.fn()
            if self._deferred:
                self._run_deferred()
        finally:
            self.cur_event_prio = None
        return True

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        until_exclusive: bool = False,
    ) -> float:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Optional simulated-time horizon; events beyond it stay queued
            and the clock is advanced to ``until``.
        stop_when:
            Optional predicate evaluated after every event; the run stops
            as soon as it returns ``True``.
        until_exclusive:
            When true, events at exactly ``until`` also stay queued (the
            horizon is the half-open interval ``[now, until)``).  The
            sharded cluster runner depends on this: a cross-shard message
            landing exactly on a window boundary must be injected before
            the boundary instant is executed, so the window must not
            consume any event at its own horizon.  The clock still
            advances to ``until``.

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        # Hot loop: one heap peek and pop per delivered event.  The heap
        # list is mutated in place everywhere (clear() and compaction
        # included), so the local binding stays valid across callbacks.
        # ``oracle`` and ``profiler`` are snapshot once — both are
        # installed before the run, never mid-run.
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        max_events = self.max_events
        oracle = self.oracle
        profiler = self.profiler
        deferred = self._deferred
        processed = self.events_processed
        try:
            # Peek first so events beyond the horizon stay queued.
            while not self._stop_requested:
                if not heap:
                    break
                entry = heap[0]
                ev = entry[3]
                if ev.cancelled:
                    heappop(heap)
                    queue._corpses -= 1
                    continue
                t = entry[0]
                if until is not None and (
                    t > until or (until_exclusive and t >= until)
                ):
                    if until > self.now:
                        self.now = until
                    break
                if processed >= max_events:
                    # Delivery max_events + 1 is refused before its pop:
                    # the event stays queued and the count stays exact.
                    raise SimulationError(
                        f"event limit {max_events} exceeded at t={t}: "
                        "likely a zero-delay event livelock"
                    )
                heappop(heap)
                ev._queue = None
                queue._live -= 1
                if t < self.now:
                    raise SimulationError(
                        f"event {ev!r} scheduled in the past "
                        f"(now={self.now})"
                    )
                self.now = t
                processed += 1
                self.events_processed = processed
                if oracle is not None:
                    oracle.on_event(ev)
                self.cur_event_prio = entry[1]
                if profiler is None:
                    ev.fn()
                else:
                    t0 = _perf_counter()
                    ev.fn()
                    profiler.record(ev.label, _perf_counter() - t0)
                if deferred:
                    self._run_deferred()
                if stop_when is not None and stop_when():
                    break
            if until is not None:
                while heap and heap[0][3].cancelled:
                    heappop(heap)
                    queue._corpses -= 1
                if not heap and until > self.now:
                    self.now = until
        finally:
            self.events_processed = processed
            self._running = False
            self.cur_event_prio = None
        return self.now

    def stop(self) -> None:
        """Request the current :meth:`run` loop to stop after the event
        being processed."""
        self._stop_requested = True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Simulator now={self.now:.6f} pending={len(self.queue)} "
            f"processed={self.events_processed}>"
        )
