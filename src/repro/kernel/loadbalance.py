"""Workload balancing across CPUs and domains.

Two triggers, as in the kernel (paper §IV-A): an **idle pull** when a
CPU is about to run its idle task, and a **periodic** check per CPU.
Balancing walks the domain hierarchy innermost-first and equalizes the
number of runnable tasks across the groups of each level, pulling from
the busiest eligible CPU.  Classes expose migration candidates through
:meth:`SchedClass.pull_candidates`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.kernel.domains import hierarchy_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core_sched import Kernel
    from repro.kernel.task import Task


class LoadBalancer:
    """Idle-pull + periodic task-count balancer."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.hierarchy = hierarchy_for(kernel.machine)

    # ------------------------------------------------------------------
    # CPU selection for new / woken tasks
    # ------------------------------------------------------------------
    def select_cpu(self, task: "Task", prefer: Optional[int] = None) -> int:
        """Pick the CPU with the fewest runnable tasks among the allowed
        ones, preferring topological proximity to ``prefer`` on ties."""
        kernel = self.kernel
        allowed = [c for c in kernel.machine.cpu_ids if task.allows_cpu(c)]
        if not allowed:
            raise ValueError(f"{task!r} has an empty CPU mask")
        if prefer is not None and prefer in allowed:
            if kernel.rqs[prefer].nr_running == 0:
                return prefer

        def key(cpu: int):
            load = kernel.rqs[cpu].nr_running
            dist = (
                self.hierarchy.distance(prefer, cpu) if prefer is not None else 0
            )
            return (load, dist, cpu)

        return min(allowed, key=key)

    # ------------------------------------------------------------------
    # Pulling
    # ------------------------------------------------------------------
    def idle_pull(self, cpu: int) -> Optional["Task"]:
        """A CPU is going idle: steal one queued task from the busiest
        peer, nearest domain first.  Returns the migrated task (already
        enqueued on ``cpu``) or None."""
        return self._pull(cpu, min_imbalance=1)

    def periodic(self, cpu: int) -> Optional["Task"]:
        """Periodic balance: pull only when the imbalance is real (the
        busiest peer has at least 2 more runnable tasks)."""
        return self._pull(cpu, min_imbalance=2)

    def _pull(self, cpu: int, min_imbalance: int) -> Optional["Task"]:
        kernel = self.kernel
        my_load = kernel.rqs[cpu].nr_running
        for dom in self.hierarchy.for_cpu(cpu):
            busiest = None
            busiest_load = my_load
            for peer in dom.cpus:
                if peer == cpu:
                    continue
                load = kernel.rqs[peer].nr_running
                if load > busiest_load:
                    busiest = peer
                    busiest_load = load
            if busiest is None or busiest_load - my_load < min_imbalance:
                continue
            if busiest_load < 2:
                # Never strip a CPU of its only runnable task: it is
                # about to run there (a pending reschedule will pick it).
                continue
            task = self._steal(busiest, cpu)
            if task is not None:
                return task
        return None

    def _steal(self, src: int, dst: int) -> Optional["Task"]:
        kernel = self.kernel
        src_rq = kernel.rqs[src]
        for sched_class in kernel.classes:
            for task in sched_class.pull_candidates(src_rq):
                if task.allows_cpu(dst):
                    # Return at once: the candidates may be a lazy walk
                    # of the queue the migration just changed.
                    kernel.migrate(task, dst)
                    return task
        return None
