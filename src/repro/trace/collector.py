"""Kernel-side trace collector.

Installed on the kernel as ``Kernel(trace=TraceCollector())``; receives
every scheduler event and folds the state-changing ones into per-task
:class:`~repro.trace.records.TaskTimeline` objects while keeping the raw
event stream for detailed analysis (priority changes, iteration marks,
migrations).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.trace.records import State, TaskTimeline, TraceEvent

#: Scheduler event kind -> resulting task state (None = annotation only).
_KIND_TO_STATE = {
    "run": State.RUNNING,
    "wake": State.READY,
    "preempted": State.READY,
    "block": State.WAITING,
    "exit": State.NONE,
}


class TraceCollector:
    """Accumulates scheduler events into timelines and an event log."""

    def __init__(self, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        self.timelines: Dict[int, TaskTimeline] = {}
        self._finished_at: Optional[float] = None

    # -- kernel hook ---------------------------------------------------
    def record(self, time: float, task: Any, kind: str, **info) -> None:
        """Kernel hook: fold one scheduler event into the trace."""
        if getattr(task, "is_idle_task", False):
            return
        if self.keep_events:
            self.events.append(TraceEvent(time, task.pid, task.name, kind, info))
        state = _KIND_TO_STATE.get(kind)
        if state is None:
            return
        tl = self.timelines.get(task.pid)
        if tl is None:
            tl = TaskTimeline(task.pid, task.name)
            self.timelines[tl.pid] = tl
        tl.transition(time, state, info.get("cpu"))

    # -- analysis helpers ----------------------------------------------
    def finish(self, time: float) -> None:
        """Close all open intervals at end of run (idempotent)."""
        if self._finished_at == time:
            return
        self._finished_at = time
        for tl in self.timelines.values():
            tl.finish(time)

    def timeline(self, pid: int) -> TaskTimeline:
        """The timeline of the task with ``pid``."""
        return self.timelines[pid]

    def by_name(self, name: str) -> TaskTimeline:
        """The (first) timeline whose task has ``name``."""
        for tl in self.timelines.values():
            if tl.name == name:
                return tl
        raise KeyError(name)

    def events_of_kind(self, kind: str) -> List[TraceEvent]:
        """All raw events of one kind, in time order."""
        return [ev for ev in self.events if ev.kind == kind]

    def priority_changes(self, pid: Optional[int] = None) -> List[TraceEvent]:
        """All hardware-priority change events (optionally one task's)."""
        return [
            ev
            for ev in self.events
            if ev.kind == "hw_priority" and (pid is None or ev.pid == pid)
        ]
