"""The Scheduling Class interface (paper §III).

The Scheduler Core treats classes as objects and calls their methods for
every low-level operation: enqueue/dequeue, picking the next task,
accounting a tick, wakeup-preemption decisions.  Classes provide their
own per-CPU queue data structure (priority arrays for RT, a red-black
tree for CFS, round-robin lists for HPC), which is exactly the property
the paper exploits to add HPCSched without touching the other classes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, FrozenSet, Iterable, Optional

from repro.kernel.policies import SchedPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core_sched import Kernel
    from repro.kernel.runqueue import RunQueue
    from repro.kernel.task import Task


class SchedClass(ABC):
    """A scheduling class: policy container + queueing discipline."""

    #: Human-readable name used in traces and figures.
    name: str = "abstract"
    #: Policies this class serves.
    policies: FrozenSet[SchedPolicy] = frozenset()

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    # -- queue management -------------------------------------------
    @abstractmethod
    def create_queue(self) -> Any:
        """Build this class's per-CPU queue object."""

    @abstractmethod
    def enqueue_task(self, rq: "RunQueue", task: "Task") -> None:
        """Add a runnable task to the CPU's queue."""

    @abstractmethod
    def dequeue_task(self, rq: "RunQueue", task: "Task") -> None:
        """Remove a task from the CPU's queue."""

    @abstractmethod
    def pick_next_task(self, rq: "RunQueue") -> Optional["Task"]:
        """Select (and remove) the best task, or None if empty."""

    @abstractmethod
    def nr_queued(self, rq: "RunQueue") -> int:
        """Number of tasks waiting in this class's queue on ``rq``."""

    # -- scheduling behaviour ----------------------------------------
    def account(self, rq: "RunQueue", task: "Task", delta: float) -> None:
        """Charge ``delta`` seconds of CPU occupancy to the running task
        (CFS turns this into virtual runtime)."""

    def task_tick(self, rq: "RunQueue", task: "Task") -> None:
        """Periodic-tick accounting for the running ``task``."""

    def check_preempt(self, rq: "RunQueue", woken: "Task") -> bool:
        """Should ``woken`` preempt ``rq.current`` (same-class decision)?"""
        return False

    def needs_tick(self, rq: "RunQueue", task: "Task") -> bool:
        """Whether the running ``task`` requires periodic ticks (NOHZ
        hint).  Default: tick only when someone is waiting."""
        return self.nr_queued(rq) > 0

    def yield_task(self, rq: "RunQueue", task: "Task") -> None:
        """``sched_yield`` semantics; default round-trips the queue."""
        self.dequeue_task(rq, task)
        self.enqueue_task(rq, task)

    # -- migration support --------------------------------------------
    def pull_candidates(self, rq: "RunQueue") -> Iterable["Task"]:
        """Queued tasks eligible for migration off this CPU, in order of
        preference (used by load balancing).  May be a lazy iterator:
        the balancer stops at the first task it migrates, before the
        queue changes.  Default: none."""
        return []

    # -- lifecycle hooks ----------------------------------------------
    def task_new(self, rq: "RunQueue", task: "Task") -> None:
        """Called when a task enters this class (fork or setscheduler)."""

    def task_exit(self, rq: "RunQueue", task: "Task") -> None:
        """Called when a task leaves this class."""

    def on_block(self, rq: "RunQueue", task: "Task", reason: str, is_wait: bool) -> None:
        """The running task just blocked (before the switch)."""

    def on_wakeup(self, task: "Task") -> None:
        """``task`` (belonging to this class) was just woken."""

    def task_placed(self, rq: "RunQueue", task: "Task") -> None:
        """Called right before enqueueing a woken/new/migrated task on
        ``rq`` (CFS renormalizes vruntime here)."""

    def put_prev_task(self, rq: "RunQueue", task: "Task") -> None:
        """Accounting hook when the running task is switched out while
        still runnable (preemption)."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SchedClass {self.name}>"
