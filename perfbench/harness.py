"""Measurement plumbing shared by the workloads: environment record,
span tracer, cProfile fold by layer, and small statistics helpers.

Nothing here imports ``repro`` at module load, so ``run.py`` can record
the environment and start the set-up probes before the program under
test is imported.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import os
import platform
import pstats
import re
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The ``src/repro`` packages the benchmark attributes time to.
LAYERS = (
    "simcore",
    "kernel",
    "power5",
    "hpcsched",
    "mpi",
    "trace",
    "workloads",
    "experiments",
    "cluster",
    "campaign",
    "serve",
)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------

def environment() -> Dict[str, Any]:
    """What the numbers were measured on, and with which switches."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = []
    return {
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def steal_seconds() -> Optional[float]:
    """CPU time the hypervisor gave to other guests, summed over CPUs
    since boot (``/proc/stat``); ``None`` where unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------

def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cpu_now() -> float:
    """CPU seconds of this process plus every reaped child so far."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------

@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: Optional[str]


@dataclass
class _Agg:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0


class Tracer:
    """Spans around public functions of the program, recorded from the
    benchmark side by wrapping them in place.

    Every wrapped call updates a per-name aggregate (calls, inclusive
    time, time covered by child spans).  Names registered with
    ``keep=True`` also keep one :class:`Span` record per call; hot leaf
    functions (millions of calls) only aggregate.  Spans nest per
    thread; coroutine spans have no parent because their lifetimes
    interleave on one thread.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.aggs: Dict[str, _Agg] = {}
        self.run: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _close(self, name: str, frame: list, start: float, end: float,
               parent: Optional[list], keep: bool, run: Optional[str] = None) -> None:
        dur = end - start
        with self._lock:
            agg = self.aggs.setdefault(name, _Agg())
            agg.calls += 1
            agg.total += dur
            agg.child += frame[1]
            if parent is not None:
                parent[1] += dur
            if keep:
                self.spans.append(Span(frame[0], name, start, end,
                                       parent[0] if parent else None, run or self.run))

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [self._new_id(), 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._close(name, frame, start, end, parent, True)

    def wrap(self, owner: Any, attr: str, name: str, keep: bool = False,
             inject: Optional[Callable[[], None]] = None,
             label: Optional[Callable[..., str]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording twin until
        :meth:`restore`.  ``inject`` runs inside the span on every call
        (the attribution self-check's known extra cost); ``label`` maps
        the call's arguments to the span's run id."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = original.__func__ if isinstance(original, (staticmethod, classmethod)) else original
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def twin(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer._close(name, [tracer._new_id() if keep else 0, 0.0],
                                  start, time.perf_counter(), None, keep,
                                  label(*args, **kwargs) if label else None)
        else:
            @functools.wraps(func)
            def twin(*args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                frame = [tracer._new_id() if keep else 0, 0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    if inject is not None:
                        inject()
                    return func(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    tracer._close(name, frame, start, end, parent, keep)

        if isinstance(original, staticmethod):
            twin = staticmethod(twin)
        elif isinstance(original, classmethod):
            twin = classmethod(twin)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, twin)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        agg = self.aggs.get(name)
        return agg.calls if agg else 0

    def total(self, name: str) -> float:
        agg = self.aggs.get(name)
        return agg.total if agg else 0.0

    def dump(self) -> Dict[str, Any]:
        return {
            "spans": [s.__dict__ for s in self.spans],
            "aggregates": {
                n: {"calls": a.calls, "total_s": a.total, "self_s": a.total - a.child}
                for n, a in sorted(self.aggs.items())
            },
        }


def instrument(tracer: Tracer, inject: Optional[Callable[[], None]] = None) -> None:
    """Wrap the public layer boundaries every workload crosses.

    ``inject`` is added to :meth:`Kernel.wake_up` only.
    """
    from repro.cluster import sharded
    from repro.cluster.cluster import Cluster
    from repro.hpcsched import heuristics
    from repro.kernel.core_sched import Kernel
    from repro.mpi.runtime import MPIRuntime
    from repro.power5 import perfmodel
    from repro.serve.service import CampaignService
    from repro.serve.workers import WorkerPool
    from repro.trace.collector import TraceCollector
    from workloads import job_key

    tracer.wrap(Kernel, "run", "kernel.run", keep=True)
    tracer.wrap(Kernel, "wake_up", "kernel.wake_up", inject=inject)
    for cls in (perfmodel.PerformanceModel, perfmodel.TableDrivenModel,
                perfmodel.DecodeShareModel):
        for attr in ("speed", "speed_pair"):
            if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False):
                tracer.wrap(cls, attr, "power5.speed")
    for cls in vars(heuristics).values():
        if isinstance(cls, type) and issubclass(cls, heuristics.Heuristic) and "decide" in cls.__dict__ \
                and not getattr(cls.__dict__["decide"], "__isabstractmethod__", False):
            tracer.wrap(cls, "decide", "hpcsched.decide")
    tracer.wrap(MPIRuntime, "collective_arrive", "mpi.collective_arrive")
    tracer.wrap(TraceCollector, "record", "trace.record")
    tracer.wrap(Cluster, "run", "cluster.run", keep=True)
    tracer.wrap(sharded, "run_sharded", "cluster.sharded.run", keep=True)
    tracer.wrap(CampaignService, "submit", "serve.submit", keep=True)
    tracer.wrap(WorkerPool, "run", "serve.exec", keep=True,
                label=lambda _pool, payload, **_kw: job_key(payload))


# ----------------------------------------------------------------------
# cProfile fold
# ----------------------------------------------------------------------

def _layer_of(filename: str) -> Optional[str]:
    """``repro.<package>`` of a source file; ``analysis`` (the tables'
    statistics) counts to ``experiments``."""
    parts = filename.replace("\\", "/").split("/")
    for i, part in enumerate(parts[:-1]):
        if part == "repro":
            pkg = "experiments" if parts[i + 1] == "analysis" else parts[i + 1]
            return pkg if pkg in LAYERS else None
    return None


#: C builtins that block the calling thread: sleeps, event-loop polls,
#: socket and pipe reads, child waits, lock waits.
_IDLE = re.compile(
    r"time\.sleep|'poll' of 'select\.|select\.select|'recv(_into)?' of"
    r"|posix\.read|posix\.waitpid|'acquire' of '_thread\."
)


def fold_profile(profiles: List[cProfile.Profile]) -> Dict[str, float]:
    """Self time by layer.  Python functions count to their package.
    Blocking C builtins (:data:`_IDLE`) count to ``idle``; other C
    builtins count to the package of the caller (pstats keeps each
    caller's share), so ``heapq`` pushes from the event queue land in
    ``simcore``.  Everything else is ``other``."""
    stats = pstats.Stats(profiles[0])
    for prof in profiles[1:]:
        stats.add(prof)
    out = {layer: 0.0 for layer in LAYERS}
    out["other"] = out["idle"] = 0.0
    for (filename, _line, func), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        layer = _layer_of(filename)
        if layer is not None:
            out[layer] += tt
            continue
        if filename == "~" and _IDLE.search(func):
            out["idle"] += tt
            continue
        if filename == "~" and callers:
            for (cfile, _cl, _cf), caller_stat in callers.items():
                out[_layer_of(cfile) or "other"] += caller_stat[2]
            continue
        out["other"] += tt
    return out


class ProfiledThread(threading.Thread):
    """A thread whose target runs under its own ``cProfile`` profiler
    when ``profile`` is set (a profiler only sees the thread that
    enabled it)."""

    def __init__(self, target: Callable[[], None], name: str,
                 profile: Optional[cProfile.Profile] = None) -> None:
        super().__init__(name=name, daemon=True)
        self._fn = target
        self.profile = profile
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            if self.profile is not None:
                self.profile.runcall(self._fn)
            else:
                self._fn()
        except BaseException as exc:  # reported by the joining thread
            self.error = exc


def fail(message: str) -> None:
    """Abort without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)
