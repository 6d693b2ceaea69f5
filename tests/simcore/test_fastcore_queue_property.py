"""Differential property suite: the production ``EventQueue`` against
the naive :class:`~tests.simcore.reference_queue.RefQueue`.

Both queues are driven through the same randomized sequences of
``push``, ``cancel`` (including cancels issued from inside a delivered
event's callback), ``pop``, ``peek_time``, ``clear``, explicit
``_compact`` and cancel bursts that trip the 64-corpse compaction
threshold.  After every step they must agree on ``len()``, on the live
``(time, priority, seq)`` set reported by ``iter_entries``, on both
halves of ``live_count_check`` and on every held handle's
``cancelled`` flag, and the corpse counter must match a heap scan;
pops and peeks must agree exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.simcore.engine import Simulator
from repro.simcore.events import EventQueue
from tests.simcore.reference_queue import RefQueue


def _key(ev):
    return (ev.time, ev.priority, ev.seq)


def _assert_agree(q: EventQueue, ref: RefQueue, pairs) -> None:
    assert len(q) == len(ref)
    tracked, actual = q.live_count_check()
    assert tracked == actual == len(ref)
    live = sorted((tm, ev.priority, ev.seq) for tm, ev in q.iter_entries())
    assert live == sorted(_key(ev) for ev in ref.pending)
    # Every held handle reports the reference's lifecycle state.
    assert [h.cancelled for h, _ in pairs] == [r.cancelled for _, r in pairs]
    # The corpse counter that schedules compaction matches a heap scan.
    assert q._corpses == sum(1 for entry in q._heap if entry[3].cancelled)


#: op, arg — arg picks times/priorities/handles; the small time pool
#: forces same-instant collisions and tie-breaking.
_OPS = st.tuples(
    st.sampled_from(
        ["push", "pushprio", "pushcancel", "cancel", "burst",
         "pop", "peek", "clear", "compact"]
    ),
    st.integers(min_value=0, max_value=1 << 16),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=120))
def test_property_queue_agrees_with_reference(ops):
    q = EventQueue()
    ref = RefQueue()
    pairs = []  # (EventQueue handle, RefQueue handle), aligned by seq
    t = 0.0

    def push(time, prio, victim=None):
        def fire():
            # Cancel from a callback: the victim may be pending, already
            # delivered, already cancelled, or the firing event itself.
            if victim is not None:
                for handle in pairs[victim % len(pairs)]:
                    handle.cancel()

        pairs.append((q.push(time, fire, priority=prio, label="x"),
                      ref.push(time, priority=prio, label="x")))

    for op, arg in ops:
        if op in ("push", "pushprio", "pushcancel"):
            t += (arg % 5) * 0.25  # % 5 == 0 repeats the instant
            prio = (arg % 7) if op != "push" else 0
            push(t, prio, victim=arg if op == "pushcancel" else None)
        elif op == "cancel" and pairs:
            for handle in pairs[arg % len(pairs)]:
                handle.cancel()
        elif op == "burst":
            # Enough cancels to cross the corpses > 64 and corpses > live
            # threshold inside Event.cancel at least once.
            first = len(pairs)
            for i in range(65 + arg % 10):
                push(t + 1.0 + i * 0.125, i % 3)
            for pair in pairs[first:]:
                for handle in pair:
                    handle.cancel()
            assert q._corpses <= max(64, len(q))
        elif op == "pop":
            ev = q.pop()
            rev = ref.pop()
            if rev is None:
                assert ev is None
            else:
                assert ev is not None and _key(ev) == _key(rev)
                ev.fn()
        elif op == "peek":
            assert q.peek_time() == ref.peek_time()
        elif op == "clear":
            q.clear()
            ref.clear()
        elif op == "compact":
            q._compact()
            assert q._corpses == 0
        _assert_agree(q, ref, pairs)

    # Drain both to exhaustion: the total order must agree to the end.
    while True:
        ev = q.pop()
        rev = ref.pop()
        if rev is None:
            assert ev is None
            break
        assert _key(ev) == _key(rev)
        ev.fn()
        _assert_agree(q, ref, pairs)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=120))
def test_property_iter_entries_agrees_with_heap(ops):
    """``iter_entries`` (the sharded runner's scan API) yields exactly the
    live (time, label, seq) multiset the heap goes on to deliver, in the
    order popping delivers it once sorted by ``(time, priority, seq)``,
    and the same multiset the reference queue holds."""
    q = EventQueue()
    ref = RefQueue()
    pairs = []
    t = 0.0
    for op, arg in ops:
        if op in ("push", "pushprio", "pushcancel"):
            t += (arg % 5) * 0.25
            prio = (arg % 7) if op != "push" else 0
            lbl = f"l{arg % 3}"
            pairs.append((q.push(t, lambda: None, priority=prio, label=lbl),
                          ref.push(t, priority=prio, label=lbl)))
        elif op in ("cancel", "burst") and pairs:
            for handle in pairs[arg % len(pairs)]:
                handle.cancel()
        elif op == "pop":
            q.pop()
            ref.pop()
        elif op == "clear":
            q.clear()
            ref.clear()
        elif op == "compact":
            q._compact()
    scan = sorted(((tm, ev.priority, ev.seq), ev.label) for tm, ev in q.iter_entries())
    assert scan == sorted((_key(ev), ev.label) for ev in ref.pending)
    delivered = []
    while (ev := q.pop()) is not None:
        delivered.append((_key(ev), ev.label))
    assert delivered == scan


def test_cancel_after_delivery_is_inert():
    """Cancelling an already-popped event must not corrupt counters
    (the kernel cancels phase events that may have just delivered)."""
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    popped = q.pop()
    assert popped is ev
    ev.cancel()  # delivered, not pending: counters untouched
    assert len(q) == 1
    assert q.live_count_check() == (1, 1)
    ev.cancel()  # double-cancel equally inert
    assert len(q) == 1
    assert q.live_count_check() == (1, 1)


def test_same_instant_append_after_partial_drain_keeps_order():
    """After a partial drain leaves a nonzero-priority event pending at
    an instant, a later priority-0 push at the same instant still
    delivers first — through every push site (``EventQueue.push``,
    ``Simulator.at``, ``Simulator.after``)."""

    def sites():
        q = EventQueue()
        yield q, lambda prio, lbl: q.push(0.25, lambda: None, priority=prio, label=lbl)
        sim = Simulator()
        yield sim.queue, lambda prio, lbl: sim.at(0.25, lambda: None, priority=prio, label=lbl)
        sim2 = Simulator()
        yield sim2.queue, lambda prio, lbl: sim2.after(0.25, lambda: None, priority=prio, label=lbl)

    for q, push in sites():
        push(1, "hi")
        push(0, "lo1")
        assert q.pop().label == "lo1"
        push(0, "lo2")
        assert q.pop().label == "lo2"
        assert q.pop().label == "hi"
        assert q.pop() is None
