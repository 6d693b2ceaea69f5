"""Event and event-queue primitives for the discrete-event engine.

Events are ordered by ``(time, priority, seq)``.  ``priority`` breaks ties
between events scheduled for the same instant (lower runs first) and ``seq``
is a monotonically increasing sequence number that keeps ordering stable and
deterministic for equal ``(time, priority)`` pairs.

Cancellation is *lazy*: :meth:`Event.cancel` flags the event and the queue
drops flagged entries when they surface, which is O(1) per cancel and keeps
the heap simple.  The queue still answers ``len()`` exactly: it maintains a
live pending count that is incremented on push and decremented when an event
is cancelled, popped, or dropped by :meth:`EventQueue.clear` — so ``len()``
never counts lazily-cancelled corpses still sitting in the heap.

Cancelled corpses are additionally *compacted* in bulk: the queue counts
them, and when they outnumber the live events (and the heap is non-trivial)
the heap is rebuilt in place without them — one O(n) heapify amortized over
the n/2 cancels that triggered it.  That keeps cancel-heavy workloads
(ticks, reschedules and phase re-pushes across hundreds of CPUs) from
carrying a heap that is mostly garbage, without giving up O(1) cancel.
The rebuild cannot reorder deliveries: the heap entries are totally
ordered by their ``(time, priority, seq)`` prefix, so any valid heap of
the same entries pops in the same sequence.

The heap itself stores ``(time, priority, seq, event)`` tuples rather than
the events: ``seq`` is unique, so the tuple prefix is a total order, the
:class:`Event` is never reached during comparison, and every heap sift
compares plain floats/ints in C instead of calling ``Event.__lt__``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulated time at which the callback fires.
    priority:
        Tie-break rank for events at the same time; lower fires first.
    seq:
        Insertion sequence number (assigned by the queue).
    fn:
        Zero-argument callable invoked when the event fires.
    label:
        Optional human-readable tag used in debug dumps.
    """

    __slots__ = ("time", "priority", "seq", "fn", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[[], Any],
        label: str = "",
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.label = label
        self.cancelled = False
        # Owning queue while the event is pending; reset to None when the
        # event fires, is cancelled, or the queue is cleared.  Carries the
        # live pending count (``_queue is not None`` == counted in len()).
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the queue discards it instead of firing it."""
        if self.cancelled:
            return
        self.cancelled = True
        q = self._queue
        if q is not None:
            self._queue = None
            q._live -= 1
            corpses = q._corpses + 1
            if corpses > 64 and corpses > q._live:
                q._compact()
            else:
                q._corpses = corpses

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not cancelled)."""
        return not self.cancelled

    def __lt__(self, other: "Event") -> bool:
        # The heap compares its (time, priority, seq) tuple entries and
        # never reaches the Event; this ordering is kept for direct
        # comparisons (sorting debug dumps, external consumers).
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} prio={self.priority} {self.label!r} {state}>"


class EventQueue:
    """A cancellable priority queue of :class:`Event` objects.

    ``len(queue)`` is the number of *pending* (active, not yet fired)
    events — cancelled entries awaiting lazy removal are not counted.
    """

    def __init__(self) -> None:
        #: (time, priority, seq, event) entries; seq is unique so the
        #: prefix totally orders the heap without comparing events.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Live pending count: push +1; cancel/pop/clear -1 per event.
        self._live = 0
        #: Cancelled entries still sitting in the heap awaiting lazy
        #: removal; when they outnumber the live events the heap is
        #: rebuilt without them (see :meth:`_compact`).
        self._corpses = 0

    def _compact(self) -> None:
        """Rebuild the heap in place without cancelled corpses.  The
        list object is mutated (not replaced) so run loops holding a
        local binding to it stay valid."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._corpses = 0

    def __len__(self) -> int:
        return self._live

    def push(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``fn`` at absolute ``time`` and return its handle."""
        seq = self._seq
        ev = Event(time, priority, seq, fn, label, self)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, skipping cancelled
        entries.  Returns ``None`` when the queue is exhausted."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[3]
            if not ev.cancelled:
                ev._queue = None
                self._live -= 1
                return ev
            self._corpses -= 1
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._corpses -= 1
        return heap[0][0] if heap else None

    def clear(self) -> None:
        """Drop every pending event, marking each one cancelled so held
        handles do not keep reporting ``active`` for events that can
        never fire."""
        for entry in self._heap:
            ev = entry[3]
            ev.cancelled = True
            ev._queue = None
        self._heap.clear()
        self._live = 0
        self._corpses = 0

    def live_count_check(self) -> tuple[int, int]:
        """``(tracked, actual)`` pending counts — ``tracked`` is the O(1)
        live counter behind ``len()``, ``actual`` an O(n) scan of the
        heap.  Used by the validate invariants to assert they agree."""
        actual = sum(1 for entry in self._heap if not entry[3].cancelled)
        return self._live, actual

    def iter_entries(self):
        """Yield ``(time, event)`` for every pending event, in no
        particular order.  Used by consumers (the sharded runner) that
        would otherwise walk ``_heap`` directly."""
        for entry in self._heap:
            ev = entry[3]
            if not ev.cancelled:
                yield entry[0], ev
