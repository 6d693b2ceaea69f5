"""Discrete-event simulation core.

The engine is deliberately small: a monotonic clock, a binary-heap event
queue with stable tie-breaking, cancellable event handles and a single
delivery loop.  There is one engine and no switch to select another.
Everything else in the stack (the simulated kernel, the POWER5 chip
model, the MPI runtime) is built as callbacks on top of this engine.

Time is a float measured in **seconds** of simulated machine time.
"""

from repro.simcore.events import Event, EventQueue
from repro.simcore.engine import Simulator, SimulationError
from repro.simcore.fastforward import (
    ChainFamily,
    TimerChain,
    fastforward_enabled,
)
from repro.simcore.profile import (
    EventProfiler,
    activate_profiler,
    deactivate_profiler,
    get_active_profiler,
)

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SimulationError",
    "ChainFamily",
    "TimerChain",
    "fastforward_enabled",
    "EventProfiler",
    "activate_profiler",
    "deactivate_profiler",
    "get_active_profiler",
]
