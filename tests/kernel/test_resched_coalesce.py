"""Same-slot resched collapse and the ``Simulator.defer``
drain-ordering contract underneath it.

``resched()`` is the same-slot collapse: any number of reschedule
requests for one CPU within one delivery slot share a single canonical
event (the dedup guard on ``rq.resched_event``).  When a direct
``__schedule`` path (exit/block/migrate) runs first, the pending
canonical event stays queued and delivers as a ``need_resched=False``
no-op; the deferred rate recompute must observe the instant's final
state at the boundary of the event that did the scheduling, not ride on
that duplicate.
"""

from repro.kernel import Kernel
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import TableDrivenModel
from repro.simcore.engine import Simulator
from tests.conftest import pure_compute_program


def _kernel(fastforward=None):
    machine = Machine(MachineTopology(), TableDrivenModel())
    return Kernel(machine=machine, sim=Simulator(), fastforward=fastforward)


def _pending_rescheds(sim, cpu):
    label = f"resched/{cpu}"
    return [ev for _, ev in sim.queue.iter_entries() if ev.label == label]


def test_same_slot_rescheds_collapse_to_one_event():
    k = _kernel()
    k.spawn("a", pure_compute_program(0.5), cpu=0)
    k.spawn("b", pure_compute_program(0.5), cpu=0)

    observed = {}

    def storm():
        for _ in range(5):
            k.resched(0)
        observed["pending"] = len(_pending_rescheds(k.sim, 0))

    k.sim.at(0.01, storm, priority=1)
    k.sim.run(until=0.02)
    assert observed["pending"] == 1


def test_heap_core_delivers_duplicate_as_noop():
    """A direct __schedule leaves the pending duplicate queued (lazy
    deletion gains nothing from a cancel); it must deliver exactly once
    as a no-op."""
    k = _kernel()
    a = k.spawn("a", pure_compute_program(0.5), cpu=0)

    fires = []
    orig_fire = k._resched_fire
    k._resched_fire = lambda cpu: (fires.append((cpu, k.rqs[cpu].need_resched)), orig_fire(cpu))[1]

    def provoke():
        k.resched(0)
        k.migrate(a, 2)

    k.sim.at(0.01, provoke, priority=1)
    k.sim.run(until=0.02)
    # cpu0's duplicate fired with need_resched already consumed.
    assert (0, False) in fires


def test_deferred_rate_drain_observes_coalesced_event():
    """The rate recompute deferred during the coalescing __schedule must
    drain at the boundary of the event that scheduled (before the clock
    moves and before any duplicate's slot), seeing the final SMT state
    of the instant."""
    k = _kernel()
    a = k.spawn("a", pure_compute_program(0.5), cpu=0)

    order = []
    orig_drain = k._drain_rate_changes

    def drain():
        order.append(("drain", k.sim.now, len(k._dirty_cores)))
        orig_drain()

    k._drain_rate_changes = drain

    def provoke():
        k.resched(0)
        k.migrate(a, 2)
        order.append(("handler-done", k.sim.now))

    k.sim.at(0.01, provoke, priority=1)
    k.sim.run(until=0.02)
    # The drain ran exactly at the provoking event's boundary: same
    # instant, immediately after the handler returned, with the dirty
    # set intact (not flushed early by the duplicate's slot).
    idx = order.index(("handler-done", 0.01))
    assert order[idx + 1][0] == "drain"
    assert order[idx + 1][1] == 0.01
    assert order[idx + 1][2] > 0
    assert k._dirty_cores == {}  # fully drained before the clock moved


def test_twin_run_migrate_under_pending_resched_identical():
    """End-to-end equivalence of the duplicate-resched path: identical
    final clock, context-switch and migration counts with timer elision
    on and off."""
    results = {}
    for ff in (True, False):
        k = _kernel(ff)
        a = k.spawn("a", pure_compute_program(0.3), cpu=0)
        k.spawn("b", pure_compute_program(0.3), cpu=0)

        def provoke(k=k, a=a):
            k.resched(0)
            k.migrate(a, 2)

        k.sim.at(0.01, provoke, priority=1)
        end = k.run()
        results[ff] = (end, k.context_switches, k.migrations)
    assert results[True] == results[False]
