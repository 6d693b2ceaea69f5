"""Performance Monitoring Unit (PMU) counters for the SMT cores.

The paper's companion characterization study (reference [4], Boneti et
al. ISCA'08) measured how hardware priorities shift core resources
using the POWER5's performance counters.  This module provides the
simulated equivalent: per-context, time-integrated counters

* ``busy_time``             — seconds the context executed a task,
* ``st_time``               — seconds of that in single-thread mode
                              (sibling idle),
* ``decode_share_integral`` — ∫ decode_share dt while busy (so
                              ``decode_share_integral / busy_time`` is
                              the average decode share received),
* ``work_done``             — work units retired (the simulated IPC
                              integral).

Accumulation is exact and event-driven: the kernel calls
:meth:`CorePMU.advance` at every SMT-state change (context switch,
priority change, sibling idle/busy transition); the interval since the
previous call is attributed to the state snapshotted then.

Known approximation: the few microseconds of context-switch cost are
attributed to the incoming task at its nominal rate (a real PMU would
similarly count pipeline-restart cycles), so ``work_done`` can exceed
the program-visible retired work by ``switches x cost x speed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.power5 import decode


@dataclass
class ContextCounters:
    """Accumulated counters of one SMT context."""

    busy_time: float = 0.0
    st_time: float = 0.0
    decode_share_integral: float = 0.0
    work_done: float = 0.0

    @property
    def avg_decode_share(self) -> float:
        """Mean decode share while busy (0..1)."""
        return (
            self.decode_share_integral / self.busy_time
            if self.busy_time > 0
            else 0.0
        )

    @property
    def smt_time(self) -> float:
        """Busy time spent sharing the core with an active sibling."""
        return self.busy_time - self.st_time


class CorePMU:
    """Counters + state snapshot for one core's two contexts."""

    def __init__(self, core) -> None:
        self.core = core
        self.counters: List[ContextCounters] = [
            ContextCounters() for _ in core.contexts
        ]
        #: Per context: ``(decode share, rate, single-thread mode)`` while
        #: busy, None while idle.
        self._snap: Tuple[Optional[tuple], Optional[tuple]] = (None, None)
        self._last_time = 0.0

    def advance(self, now: float) -> None:
        """Attribute the elapsed interval to the previous snapshot, then
        re-snapshot the core's current SMT state."""
        dt = now - self._last_time
        if dt > 0:
            for ctr, snap in zip(self.counters, self._snap):
                if snap is None:
                    continue
                share, rate, st_mode = snap
                ctr.busy_time += dt
                ctr.decode_share_integral += share * dt
                ctr.work_done += rate * dt
                if st_mode:
                    ctr.st_time += dt
        self._last_time = now
        self._resnapshot()

    def _resnapshot(self) -> None:
        core = self.core
        c0, c1 = core.contexts
        if c0.busy and c1.busy:
            # Module-attribute call so the validated implementation
            # installed by decode.enable_validation() is observed.  The
            # arbitration is symmetric, so one call serves both contexts.
            share0, share1 = decode.decode_shares(
                int(c0.priority), int(c1.priority)
            )
            p0 = getattr(c0.task, "perf_profile", None)
            p1 = getattr(c1.task, "perf_profile", None)
            if p0 is not None and p1 is not None:
                rate0, rate1 = core.context_speeds(p0, p1)
            else:
                rate0 = core.context_speed(0, p0) if p0 is not None else 0.0
                rate1 = core.context_speed(1, p1) if p1 is not None else 0.0
            self._snap = ((share0, rate0, False), (share1, rate1, False))
        elif c0.busy:
            self._snap = (self._solo(0, c0), None)
        elif c1.busy:
            self._snap = (None, self._solo(1, c1))
        else:
            self._snap = (None, None)

    def _solo(self, index: int, ctx) -> tuple:
        """Snapshot of a busy context whose sibling is idle."""
        profile = getattr(ctx.task, "perf_profile", None)
        if profile is None:
            return (1.0, 0.0, True)
        return (1.0, self.core.context_speed(index, profile), True)


class MachinePMU:
    """PMU aggregation over a whole machine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.cores: Dict[int, CorePMU] = {
            core.core_id: CorePMU(core) for core in machine.cores()
        }

    def pmu_for_core(self, core) -> CorePMU:
        """The per-core PMU instance."""
        return self.cores[core.core_id]

    def advance_core(self, core, now: float) -> None:
        """Advance one core's counters to ``now`` (kernel hook)."""
        self.cores[core.core_id].advance(now)

    def finalize(self, now: float) -> None:
        """Flush every core's counters at end of run (idempotent)."""
        for pmu in self.cores.values():
            pmu.advance(now)

    def context_counters(self, cpu_id: int) -> ContextCounters:
        """Accumulated counters of the context behind ``cpu_id``."""
        ctx = self.machine.context(cpu_id)
        return self.cores[ctx.core.core_id].counters[ctx.thread_index]
