"""Corpse/live counter invariants under adversarial interleavings.

The queue answers ``len()`` from an O(1) ``_live`` counter and schedules
bulk compaction from an O(1) ``_corpses`` counter.  Four code paths
mutate those counters: ``Event.cancel`` (with its compaction threshold),
``EventQueue.pop``/``peek_time``/``clear``, and the hand-flattened
lazy-pop site in ``Simulator.run``.  This suite drives random
interleavings — including ``clear()`` fired from inside a handler
mid-drain and cancels of other pending events from inside a handler —
and asserts after every step that both counters match an O(n) scan of
the heap.  Drains run both with and without a ``until`` horizon, since
the loop's horizon check sits between its corpse skip and its pop.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simcore.engine import Simulator
from repro.simcore.events import EventQueue
from repro.simcore.profile import EventProfiler


def check_counters(q: EventQueue) -> None:
    """Assert the O(1) counters against an O(n) heap scan."""
    live = sum(1 for e in q._heap if not e[3].cancelled)
    corpses = sum(1 for e in q._heap if e[3].cancelled)
    assert len(q) == q._live == live
    assert q._corpses == corpses
    assert q._corpses >= 0


# ----------------------------------------------------------------------
# Pure-queue interleavings (no engine)
# ----------------------------------------------------------------------
#: op, arg — arg indexes into the currently-held handles where relevant.
_OPS = st.tuples(
    st.sampled_from(["push", "cancel", "pop", "peek", "clear", "compact"]),
    st.integers(min_value=0, max_value=1 << 16),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=120))
def test_property_counters_match_scan_under_random_ops(ops):
    q = EventQueue()
    handles = []
    t = 0.0
    for op, arg in ops:
        if op == "push":
            t += (arg % 7) * 0.125  # repeats exercise tie-breaking
            handles.append(q.push(t, lambda: None))
        elif op == "cancel" and handles:
            # Double-cancels and cancels of popped events included.
            handles[arg % len(handles)].cancel()
        elif op == "pop":
            q.pop()
        elif op == "peek":
            q.peek_time()
        elif op == "clear":
            q.clear()
        elif op == "compact":
            q._compact()
        check_counters(q)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=65, max_value=300),
    st.integers(min_value=0, max_value=64),
)
def test_property_compaction_threshold_never_drifts(n_cancel, n_keep):
    # Push enough events to trip the corpses>64, corpses>live threshold
    # from inside Event.cancel, in every order hypothesis picks.
    q = EventQueue()
    doomed = [q.push(float(i), lambda: None) for i in range(n_cancel)]
    for i in range(n_keep):
        q.push(float(n_cancel + i), lambda: None)
    for ev in doomed:
        ev.cancel()
        check_counters(q)
    assert len(q) == n_keep


# ----------------------------------------------------------------------
# Engine-loop interleavings: the run loop's lazy-pop site
# ----------------------------------------------------------------------
def _storm(sim, n_events, clear_at, cancel_stride):
    """Schedule a burst where handler ``clear_at`` clears the queue
    mid-drain and every ``cancel_stride``-th handler cancels the next
    pending event (possibly one at the same instant)."""
    pending = []

    def handler(i):
        if i == clear_at:
            sim.queue.clear()
            return
        if cancel_stride and i % cancel_stride == 0:
            for ev in pending:
                if ev.active and ev._queue is not None:
                    ev.cancel()
                    break
        check_counters(sim.queue)

    for i in range(n_events):
        # Duplicate timestamps exercise same-instant delivery.
        pending.append(
            sim.at((i // 4) * 0.001, lambda i=i: handler(i), priority=i % 3)
        )
    return pending


def _drain(sim, horizon):
    # A horizon far past the storm delivers the same events through the
    # loop's until-check branch.
    sim.run(until=10.0 if horizon else None)


@pytest.mark.parametrize("horizon", [True, False])
@pytest.mark.parametrize("clear_at", [-1, 0, 17, 39])
@pytest.mark.parametrize("cancel_stride", [0, 1, 3])
def test_engine_drain_counters(horizon, clear_at, cancel_stride):
    sim = Simulator()
    _storm(sim, 40, clear_at, cancel_stride)
    _drain(sim, horizon)
    check_counters(sim.queue)
    assert len(sim.queue) == 0


@pytest.mark.parametrize("profiled", [True, False])
def test_engine_general_path_counters(profiled):
    # Split drains stop at a horizon mid-storm; the profiler, when
    # attached, times each callback without touching the counters.
    sim = Simulator()
    if profiled:
        sim.profiler = EventProfiler()
    pending = _storm(sim, 40, clear_at=-1, cancel_stride=2)
    sim.run(until=0.004)
    check_counters(sim.queue)
    sim.run(until=1.0)
    check_counters(sim.queue)
    assert len(sim.queue) == 0
    assert all(not ev.active or ev._queue is None for ev in pending)
    if profiled:
        assert sim.profiler.snapshot()


def test_cancel_currently_firing_event_is_counter_neutral():
    sim = Simulator()
    holder = []

    def fire():
        holder[0].cancel()  # self-cancel mid-delivery: entry already popped
        check_counters(sim.queue)

    holder.append(sim.at(0.0, fire))
    sim.run()
    check_counters(sim.queue)


@pytest.mark.parametrize("horizon", [True, False])
def test_mass_cancel_inside_handler_compacts_mid_drain(horizon):
    # One handler cancels 100 future events in a burst, tripping the
    # corpses>64 compaction threshold from inside Event.cancel while
    # Simulator.run holds its local binding to the heap list.  The
    # rebuild mutates the list in place, so the drain must continue
    # seamlessly and the counters must survive the rebuild.
    sim = Simulator()
    fired = []
    doomed = [
        sim.at(1.0 + i * 0.001, lambda i=i: fired.append(i))
        for i in range(100)
    ]
    survivor = sim.at(2.0, lambda: fired.append("survivor"))

    def massacre():
        for ev in doomed:
            ev.cancel()
        check_counters(sim.queue)
        # Compaction ran inside cancel at the 65th corpse; the later
        # cancels re-accumulate but never reach the original 100.
        assert sim.queue._corpses < len(doomed)

    sim.at(0.5, massacre)
    _drain(sim, horizon)
    assert fired == ["survivor"]
    assert survivor._queue is None
    check_counters(sim.queue)


def test_clear_during_batched_same_instant_group():
    # Three events at one instant; the first clears the queue.  The
    # run loop must not deliver or double-count the two entries clear()
    # already removed.
    sim = Simulator()
    fired = []
    sim.at(0.0, lambda: (fired.append("a"), sim.queue.clear()), priority=0)
    sim.at(0.0, lambda: fired.append("b"), priority=1)
    sim.at(0.0, lambda: fired.append("c"), priority=2)
    sim.run()
    assert fired == ["a"]
    check_counters(sim.queue)
