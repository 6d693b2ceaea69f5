"""SMT core and hardware-context model.

An :class:`SMTCore` owns two :class:`SMTContext` slots.  The simulated
kernel loads at most one task onto each context; the core answers "how
fast is the task on context X progressing right now?" by combining both
contexts' hardware priorities and busy states through a
:class:`~repro.power5.perfmodel.PerformanceModel`.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.power5.perfmodel import PerformanceModel, PerfProfile, TableDrivenModel
from repro.power5.priorities import (
    DEFAULT_PRIORITY,
    HWPriority,
    PriorityError,
    coerce_priority,
)


class SMTContext:
    """One hardware thread (what the OS sees as a logical CPU)."""

    __slots__ = ("cpu_id", "core", "thread_index", "priority", "task", "busy")

    def __init__(self, cpu_id: int, core: "SMTCore", thread_index: int) -> None:
        self.cpu_id = cpu_id
        self.core = core
        self.thread_index = thread_index
        #: Hardware thread priority currently programmed on the context.
        self.priority: HWPriority = DEFAULT_PRIORITY
        #: Opaque handle to the task the kernel loaded (None = idle).
        self.task: Optional[Any] = None
        #: Whether the context is executing useful work.  The Linux idle
        #: loop snoozes at very low priority, so an idle context does not
        #: count as busy for SMT resource purposes.
        self.busy: bool = False

    @property
    def sibling(self) -> "SMTContext":
        return self.core.contexts[1 - self.thread_index]

    def load(self, task: Any, priority: int, busy: bool = True) -> None:
        """Install ``task`` on the context with hardware ``priority``."""
        self.task = task
        self.priority = coerce_priority(priority)
        self.busy = busy

    def idle(self) -> None:
        """Return the context to the idle loop (snooze priority)."""
        self.task = None
        self.busy = False
        self.priority = HWPriority.VERY_LOW

    def set_priority(self, priority: int) -> None:
        """Reprogram the context's hardware thread priority."""
        self.priority = coerce_priority(priority)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "busy" if self.busy else "idle"
        return f"<ctx cpu{self.cpu_id} prio={int(self.priority)} {state}>"


class SMTCore:
    """A 2-way SMT POWER5 core."""

    def __init__(
        self,
        core_id: int,
        first_cpu_id: int,
        perf_model: Optional[PerformanceModel] = None,
        threads: int = 2,
    ) -> None:
        if threads != 2:
            raise PriorityError("the POWER5 core model is strictly 2-way SMT")
        self.core_id = core_id
        self.perf_model = perf_model or TableDrivenModel()
        self.contexts: List[SMTContext] = [
            SMTContext(first_cpu_id + i, self, i) for i in range(threads)
        ]

    def context_speed(self, thread_index: int, profile: PerfProfile) -> float:
        """Current execution speed of the task on ``thread_index``.

        Speed is a multiplier relative to the SMT-equal baseline (both
        contexts busy, equal priority -> 1.0).
        """
        contexts = self.contexts
        ctx = contexts[thread_index]
        sib = contexts[1 - thread_index]
        # Positional (own_priority, sibling_priority, sibling_busy): this
        # runs on every context switch.
        return self.perf_model.speed(
            profile, int(ctx.priority), int(sib.priority), sib.busy
        )

    def context_speeds(
        self, profile0: PerfProfile, profile1: PerfProfile
    ) -> "tuple[float, float]":
        """Both contexts' current speeds in one model call (the
        rate-propagation drain's dual-running fast path).  Exactly
        equivalent to ``(context_speed(0, profile0),
        context_speed(1, profile1))``."""
        c0, c1 = self.contexts
        return self.perf_model.speed_pair(
            profile0,
            profile1,
            int(c0.priority),
            int(c1.priority),
            c0.busy,
            c1.busy,
        )

    def st_mode(self) -> bool:
        """Whether the core is effectively running a single thread."""
        busy = [ctx for ctx in self.contexts if ctx.busy]
        return len(busy) <= 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SMTCore {self.core_id} {self.contexts!r}>"
