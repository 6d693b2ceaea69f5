"""Timeline and interval unit tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.records import Interval, State, TaskTimeline, TraceEvent


def test_interval_duration():
    iv = Interval(1.0, 3.5, State.RUNNING, cpu=0)
    assert iv.duration == 2.5


def test_transitions_build_intervals():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.READY)
    tl.transition(1.0, State.RUNNING, cpu=0)
    tl.transition(3.0, State.WAITING)
    tl.finish(4.0)
    assert len(tl.intervals) == 3
    assert tl.intervals[0] == Interval(0.0, 1.0, State.READY, None)
    assert tl.intervals[1] == Interval(1.0, 3.0, State.RUNNING, 0)
    assert tl.intervals[2] == Interval(3.0, 4.0, State.WAITING, None)


def test_same_state_transition_coalesced():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.RUNNING, cpu=0)
    tl.transition(1.0, State.RUNNING, cpu=0)
    tl.finish(2.0)
    assert len(tl.intervals) == 1
    assert tl.intervals[0].duration == 2.0


def test_cpu_change_splits_interval():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.RUNNING, cpu=0)
    tl.transition(1.0, State.RUNNING, cpu=2)
    tl.finish(2.0)
    assert len(tl.intervals) == 2
    assert tl.intervals[0].cpu == 0
    assert tl.intervals[1].cpu == 2


def test_zero_length_interval_dropped():
    tl = TaskTimeline(1, "t")
    tl.transition(1.0, State.RUNNING, cpu=0)
    tl.transition(1.0, State.WAITING)
    tl.finish(2.0)
    assert len(tl.intervals) == 1
    assert tl.intervals[0].state == State.WAITING


def test_time_in_with_window():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.RUNNING, cpu=0)
    tl.transition(4.0, State.WAITING)
    tl.finish(6.0)
    assert tl.time_in(State.RUNNING) == 4.0
    assert tl.time_in(State.RUNNING, start=1.0, end=3.0) == 2.0
    assert tl.time_in(State.WAITING, start=0.0, end=5.0) == 1.0
    assert tl.time_in(State.READY) == 0.0


def test_span():
    tl = TaskTimeline(1, "t")
    assert tl.span == 0.0
    tl.transition(1.0, State.RUNNING, cpu=0)
    tl.transition(3.0, State.WAITING)
    tl.finish(5.0)
    assert tl.span == 4.0


def test_finish_idempotent_state():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.RUNNING, cpu=0)
    tl.finish(1.0)
    n = len(tl.intervals)
    tl.finish(1.0)
    assert len(tl.intervals) == n


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    time=_FLOATS,
    pid=st.integers(),
    kind=st.sampled_from(["run", "wake", "block", "hw_priority"]),
    field=st.sampled_from(["time", "pid", "name", "kind", "info", "extra"]),
)
def test_property_trace_event_is_immutable(time, pid, kind, field):
    ev = TraceEvent(time, pid, "t", kind, {"cpu": 0})
    with pytest.raises(AttributeError):
        setattr(ev, field, None)
    assert ev == (time, pid, "t", kind, {"cpu": 0})


@settings(max_examples=50, deadline=None)
@given(
    start=_FLOATS,
    length=st.floats(0.0, 1e6),
    state=st.sampled_from(list(State)),
    cpu=st.none() | st.integers(0, 7),
    field=st.sampled_from(["start", "end", "state", "cpu", "duration", "extra"]),
)
def test_property_interval_is_immutable(start, length, state, cpu, field):
    iv = Interval(start, start + length, state, cpu)
    with pytest.raises(AttributeError):
        setattr(iv, field, None)
    assert iv.duration == iv.end - iv.start


@settings(max_examples=20, deadline=None)
@given(time=_FLOATS, pid=st.integers(), key=st.text(max_size=5))
def test_property_default_info_is_not_shared(time, pid, key):
    a = TraceEvent(time, pid, "a", "run")
    b = TraceEvent(time, pid, "b", "run")
    assert a.info == {} and b.info == {}
    assert a.info is not b.info
    a.info[key] = 1
    assert b.info == {}
