"""The four benchmark workloads, driven through the program's public
Python APIs (``repro.experiments``, ``repro.cluster.experiment``,
``repro.serve``, ``repro.campaign``).

Each workload offers :meth:`setup` (work done once before measuring),
:meth:`probe` (after :meth:`setup`, run until the first simulated event
or the first submission, then stop: the ``setup_s`` measurement) and
:meth:`run_pass` (one measured pass).  A pass has a *primary* leg
and an *alternative* leg over the same inputs; see README.md.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import random
import shutil
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import ProfiledThread, Tracer, children_cpu, cpu_now, median

#: ``--seed`` value that selects the paper's own seeds.
DEFAULT_SEED = 0

#: Largest |exec - paper| / paper accepted on any paper-table row at
#: the default seed (Tables III-V: <= 2.5% today; Table VI: <= 1.5%).
EXEC_BAND_PCT = 3.0
#: Tables III-V: the cfs baseline rows reproduce the paper's %Comp
#: almost exactly.
CFS_COMP_BAND = 2.0


class Ready(Exception):
    """Raised by a probe hook once set-up has reached its end point."""


@dataclass
class PassResult:
    primary_s: float = 0.0
    alt_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Per-operation latency (experiment run, cluster run, or job).
    ops: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Deterministic work counters; must repeat exactly.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Result fingerprints; must repeat exactly.
    outputs: Dict[str, str] = field(default_factory=dict)
    #: (name, ok, detail) output checks.
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: Per-layer values measured without wrappers.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Latency of each executed job by :func:`job_key` (serve only).
    job_latency: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def job_key(run: Dict[str, Any]) -> str:
    """Identity of a submitted run, also computable from a worker payload."""
    return json.dumps([run["experiment"], run["params"], run["seed"]], sort_keys=True)


def _span(tracer: Optional[Tracer], name: str, run: str):
    if tracer is None:
        return nullcontext()
    tracer.run = run
    return tracer.span(name)


def _hook_first(owner: Any, attr: str, ready: Callable[[], None]) -> None:
    """Make ``owner.attr`` report ready and stop the probe on first call."""

    def hooked(*_args, **_kwargs):
        ready()
        raise Ready()

    setattr(owner, attr, hooked)


# ----------------------------------------------------------------------
# Paper tables
# ----------------------------------------------------------------------

class _PaperWorkload:
    """Simulated paper-table runs; the cfs runs are the alternative leg
    (they never enter HPCSched)."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def legs(self) -> List[Tuple[str, str, Callable[[], Any]]]:
        raise NotImplementedError

    def paper(self, table: str) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
        raise NotImplementedError

    def check_row(self, out: PassResult, key: str, sched: str, res, paper_comp) -> None:
        """Workload-specific checks of one result row."""

    def setup(self) -> None:
        """Nothing to prepare beyond the imports."""

    def probe(self, ready: Callable[[], None]) -> None:
        from repro.kernel.core_sched import Kernel

        _hook_first(Kernel, "run", ready)
        try:
            self.legs()[0][2]()
        except Ready:
            pass

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        out = PassResult()
        deltas: List[float] = []
        latencies: List[float] = []
        cpu0 = cpu_now()
        start = time.perf_counter()
        for table, sched, fn in self.legs():
            key = f"{table}/{sched}"
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with _span(tracer, "experiments.run", key):
                    res = fn()
            except Exception as exc:  # one failed run must not hide the rest
                out.check(f"{key} ran", False, repr(exc))
                continue
            dt = time.perf_counter() - t0
            out.ops.append(dt)
            if sched == "cfs":
                out.alt_s += dt
            else:
                out.primary_s += dt
            kernel, runtime = res.kernel, res.launched.runtime
            out.add("simcore.events", kernel.sim.events_processed)
            out.add("simcore.sim_seconds", res.exec_time)
            out.add("kernel.context_switches", kernel.context_switches)
            out.add("hpcsched.priority_changes", res.priority_changes)
            out.add("mpi.messages_sent", runtime.messages_sent)
            out.add("mpi.messages_delivered", runtime.messages_delivered)
            latencies.append(res.mean_wakeup_latency)
            out.outputs[key] = repr((
                res.exec_time,
                sorted((n, t.pct_comp, t.pct_running) for n, t in res.tasks.items()),
                res.priority_changes,
                res.mean_wakeup_latency,
                res.max_wakeup_latency,
            ))
            paper_exec, paper_comp = self.paper(table)
            delta = 100.0 * abs(res.exec_time - paper_exec[sched]) / paper_exec[sched]
            deltas.append(delta)
            if self.seed == DEFAULT_SEED:
                out.check(f"{key} exec within {EXEC_BAND_PCT}% of paper",
                          delta <= EXEC_BAND_PCT, f"{delta:.2f}%")
            self.check_row(out, key, sched, res, paper_comp)
            del res, kernel, runtime
        out.wall_s = time.perf_counter() - start
        out.cpu_s = cpu_now() - cpu0
        out.counts["kernel.sim_wakeup_latency_us"] = (
            1e6 * sum(latencies) / len(latencies) if latencies else 0.0
        )
        out.layer["experiments.paper_delta_max_pct"] = max(deltas, default=0.0)
        return out


class PaperBalance(_PaperWorkload):
    """Tables III, IV and V under cfs, static, uniform and adaptive."""

    name = "paper_balance"

    def _modules(self):
        from repro.experiments import btmz, metbench, metbenchvar

        return {"table3": metbench, "table4": metbenchvar, "table5": btmz}

    def legs(self):
        from repro.experiments.common import SCHEDULERS

        return [
            (table, sched, (lambda m=mod, s=sched: m.run_one(s)))
            for table, mod in self._modules().items()
            for sched in SCHEDULERS
        ]

    def paper(self, table):
        mod = self._modules()[table]
        return mod.PAPER_EXEC, mod.PAPER_COMP

    def check_row(self, out, key, sched, res, paper_comp):
        if sched == "cfs":
            worst = max(abs(res.tasks[n].pct_comp - v) for n, v in paper_comp[sched].items())
            out.check(f"{key} %Comp within {CFS_COMP_BAND} points of paper",
                      worst <= CFS_COMP_BAND, f"{worst:.2f}")


class SiestaLatency(_PaperWorkload):
    """Table VI: SIESTA with the OS-noise daemons under cfs, uniform and
    adaptive.  The chunk and noise seeds come from ``--seed``."""

    name = "siesta_latency"
    #: SCF steps per run; ``None`` keeps the paper's size (the
    #: attribution self-check shrinks it).
    scf_steps: Optional[int] = None

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.workloads.noise import NoiseDaemons
        from repro.workloads.siesta import Siesta

        if seed == DEFAULT_SEED:
            self.chunk_seed = Siesta().seed
            self.noise_seed = NoiseDaemons().seed
        else:
            rng = random.Random(seed)
            self.chunk_seed = rng.randrange(2**31)
            self.noise_seed = rng.randrange(2**31)

    def legs(self):
        from repro.experiments.common import run_experiment
        from repro.workloads.noise import NoiseDaemons
        from repro.workloads.siesta import Siesta

        size = {"scf_steps": self.scf_steps} if self.scf_steps else {}

        def leg(sched):
            return run_experiment(
                Siesta(seed=self.chunk_seed, **size),
                sched,
                noise=NoiseDaemons(seed=self.noise_seed),
            )

        return [("table6", s, (lambda s=s: leg(s))) for s in ("cfs", "uniform", "adaptive")]

    def paper(self, table):
        from repro.experiments import siesta

        return siesta.PAPER_EXEC, siesta.PAPER_COMP

    def check_row(self, out, key, sched, res, paper_comp):
        """The paper's Table VI claim, at every seed: SCHED_HPC ranks wake
        past the noise daemons, so they wait less and finish sooner."""
        if sched == "cfs":
            self._cfs = res.exec_time, res.mean_wakeup_latency
            return
        if getattr(self, "_cfs", None) is None:
            return
        cfs_exec, cfs_latency = self._cfs
        out.check(f"{key} faster than cfs", res.exec_time < cfs_exec,
                  f"{res.exec_time:.2f} vs {cfs_exec:.2f}")
        out.check(f"{key} lower mean wakeup latency than cfs",
                  res.mean_wakeup_latency < cfs_latency,
                  f"{res.mean_wakeup_latency:.3g} vs {cfs_latency:.3g}")


# ----------------------------------------------------------------------
# Cluster ladder
# ----------------------------------------------------------------------

@contextmanager
def _node_counters(out: PassResult):
    """Add the node kernels' context switches and the HPCSched priority
    changes of every serial cluster run inside the block to ``out``
    (``run_cluster`` returns neither)."""
    from repro.cluster.cluster import Cluster

    clusters = []
    run = Cluster.run

    def counted(cluster, *args, **kwargs):
        clusters.append(cluster)
        return run(cluster, *args, **kwargs)

    Cluster.run = counted
    try:
        yield
    finally:
        Cluster.run = run
    for cluster in clusters:
        for node in cluster.nodes:
            out.add("kernel.context_switches", node.kernel.context_switches)
            if node.hpc_class is not None:
                out.add("hpcsched.priority_changes", node.hpc_class.detector.priority_changes)


class ClusterLadder:
    """The MetBench ladder on 256 nodes (1,024 ranks), block and gang
    placement: serially (primary leg), then over two shards (alternative
    leg).  The ladder has no seeded input."""

    name = "cluster_ladder"
    NODES = 256
    RANKS = 1024
    ITERATIONS = 20
    STRATEGIES = ("block", "gang")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Nothing to prepare beyond the imports."""

    def _loads(self):
        from repro.cluster.experiment import ladder_loads

        return ladder_loads(self.RANKS)

    def probe(self, ready: Callable[[], None]) -> None:
        from repro.cluster.cluster import Cluster
        from repro.cluster.experiment import run_cluster

        _hook_first(Cluster, "run", ready)
        try:
            run_cluster(self.STRATEGIES[0], loads=self._loads(),
                        iterations=self.ITERATIONS, n_nodes=self.NODES)
        except Ready:
            pass

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        from repro.cluster.experiment import run_cluster, run_cluster_sharded

        out = PassResult()
        loads = self._loads()
        args = dict(loads=loads, iterations=self.ITERATIONS, n_nodes=self.NODES)
        serial: Dict[str, Any] = {}
        cpu0 = cpu_now()
        start = time.perf_counter()
        for strat in self.STRATEGIES:
            out.attempted += 1
            t0 = time.perf_counter()
            with _span(tracer, "cluster.experiment", f"serial/{strat}"), \
                    _node_counters(out):
                res = run_cluster(strat, **args)
            dt = time.perf_counter() - t0
            out.ops.append(dt)
            out.primary_s += dt
            serial[strat] = res
            out.add("simcore.events", res.events)
            out.add("simcore.sim_seconds", res.exec_time)
            out.add("mpi.messages_sent", res.messages_sent)
            out.add("mpi.messages_delivered", res.messages_delivered)
            out.outputs[f"serial/{strat}"] = repr(sorted(res.rank_exit.items()))
        parent_cpu = worker_cpu = 0.0
        for strat in self.STRATEGIES:
            out.attempted += 1
            p0, k0 = time.process_time(), children_cpu()
            t0 = time.perf_counter()
            with _span(tracer, "cluster.experiment", f"sharded/{strat}"):
                res = run_cluster_sharded(strat, shards=2, workers="auto", **args)
            dt = time.perf_counter() - t0
            parent_cpu += time.process_time() - p0
            worker_cpu += children_cpu() - k0
            out.ops.append(dt)
            out.alt_s += dt
            out.add("cluster.sharded.events", res.events)
            out.add("cluster.sharded.sync_rounds", res.sync_rounds)
            out.add("cluster.sharded.windows", res.windows)
            out.add("cluster.sharded.wire_bytes", res.wire_bytes)
            out.outputs[f"sharded/{strat}"] = repr((res.workers, sorted(res.rank_exit.items())))
            same = res.rank_exit == serial[strat].rank_exit
            out.check(f"{strat}: serial and 2-shard rank_exit identical", same,
                      f"workers={res.workers}")
        out.wall_s = time.perf_counter() - start
        out.cpu_s = cpu_now() - cpu0
        out.layer["cluster.sharded.parent_cpu_s"] = parent_cpu
        out.layer["cluster.sharded.worker_cpu_s"] = worker_cpu
        return out


# ----------------------------------------------------------------------
# Serve sweep
# ----------------------------------------------------------------------

class _ServiceHost:
    """A CampaignService on its own thread and event loop (the journal
    is single-threaded).  The client talks to it over HTTP only; the
    host records when each job reaches a terminal state."""

    def __init__(self, config, profile=None) -> None:
        self.config = config
        self.port: Optional[int] = None
        self.terminal: Dict[str, float] = {}
        self._terminal_changed = threading.Condition()
        self.service = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._thread = ProfiledThread(self._run, "perfbench-serve", profile)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        finally:
            self._ready.set()

    def _watch(self, queue, method: str) -> None:
        original = getattr(queue, method)
        terminal, changed = self.terminal, self._terminal_changed

        def watched(job_id, *args, **kwargs):
            job = original(job_id, *args, **kwargs)
            if job is not None:
                with changed:
                    terminal[job_id] = time.perf_counter()
                    changed.notify_all()
            return job

        setattr(queue, method, watched)

    async def _main(self) -> None:
        from repro.serve.service import CampaignService

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = CampaignService(self.config)
        self._watch(self.service.queue, "complete")
        self._watch(self.service.queue, "fail")
        await self.service.start()
        self.port = self.service.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.service.stop()

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(timeout=60.0) or self.port is None:
            raise RuntimeError(f"service did not start: {self._thread.error!r}")

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():
            raise RuntimeError("service did not stop within 60s")
        if self._thread.error is not None:
            raise self._thread.error

    def wait_terminal(self, job_ids: List[str], timeout: float) -> bool:
        with self._terminal_changed:
            return self._terminal_changed.wait_for(
                lambda: all(j in self.terminal for j in job_ids), timeout)


def reap_children() -> None:
    """Join every child process this process started."""
    for proc in multiprocessing.active_children():
        proc.join(30.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(30.0)


class ServeSweep:
    """A 2-process-worker CampaignService on a cold root.  An open-loop
    client streams one matrix of ``synth_scatter`` jobs over HTTP at a
    fixed rate (the job latencies), then submits two more matrices with
    fresh seeds back to back (burst leg: how fast the service drains
    cold work), then other tenants resubmit the first matrix as fast as
    one client can (warm leg: every job is a cache hit)."""

    name = "serve_sweep"
    IMBALANCES = (1.5, 2.0, 3.0, 4.0)
    RANKS = (4, 8)
    SEEDS_PER_CELL = 13  # 4 x 2 x 13 = 104 jobs per matrix
    #: Offered load of the stream (jobs/s): about half the cold
    #: capacity that the burst leg measures (~60 jobs/s on a 2-CPU host).
    RATE = 30.0
    #: Matrices in the burst, and the tenants it is spread over: 52
    #: jobs each stay within the default ``ServeConfig.max_tenant_depth``
    #: of 64 queued jobs.
    BURST_MATRICES = 2
    BURST_TENANTS = 4
    #: Tenants that resubmit the streamed matrix in the warm leg, and
    #: jobs per request (within the admission bound, as above).
    WARM_TENANTS = 10
    WARM_BATCH = 52
    SAMPLE = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        rng = random.Random(seed)
        self.stream = self._matrix(rng)
        self.burst = [run for _ in range(self.BURST_MATRICES) for run in self._matrix(rng)]
        self.sample = sorted(rng.sample(range(len(self.stream)), self.SAMPLE))
        self._passes = 0
        self.profile = None  # a cProfile.Profile for the service thread
        self.expected: Dict[int, str] = {}

    @staticmethod
    def _invoke(run: Dict[str, Any]) -> str:
        """The result payload of ``run`` computed in this process."""
        from repro.campaign.spec import RunSpec, canonical_json, invoke, summarize_result

        spec = RunSpec(experiment=run["experiment"], params=dict(run["params"]),
                       seed=run["seed"])
        return canonical_json(summarize_result(invoke(spec)[0]))

    def _matrix(self, rng: random.Random) -> List[Dict[str, Any]]:
        seeds = [rng.randrange(2**31) for _ in range(self.SEEDS_PER_CELL)]
        return [
            {"experiment": "synth_scatter",
             "params": {"imbalance": imb, "ranks": ranks},
             "seed": s}
            for s in seeds
            for imb in self.IMBALANCES
            for ranks in self.RANKS
        ]

    def _config(self):
        from repro.serve.state import ServeConfig

        self._passes += 1
        root = self.workdir / f"serve-{self._passes}"
        if root.exists():
            shutil.rmtree(root)
        return ServeConfig(root=str(root), workers=2, worker_mode="process")

    def setup(self) -> None:
        """Compute the sample jobs' results in this process, then run
        them once through a throwaway service.  Pool workers fork from
        this process, so every measured pass starts from the same warm
        state, not only the passes after the first."""
        from repro.serve.client import ServeClient

        self.expected = {i: self._invoke(self.stream[i]) for i in self.sample}
        host = _ServiceHost(self._config())
        host.start()
        try:
            client = ServeClient("127.0.0.1", host.port, timeout=60.0)
            doc = client.submit("setup", [self.stream[i] for i in self.sample])
            ids = [a["job_id"] for a in doc["accepted"]]
            if not host.wait_terminal(ids, timeout=60.0):
                raise RuntimeError("set-up jobs did not finish within 60s")
        finally:
            host.stop()
            reap_children()

    def probe(self, ready: Callable[[], None]) -> None:
        from repro.serve.client import ServeClient

        host = _ServiceHost(self._config())
        host.start()
        try:
            ServeClient("127.0.0.1", host.port)
            ready()
        finally:
            host.stop()
            reap_children()

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        from repro.campaign.spec import canonical_json
        from repro.serve.client import ServeClient

        out = PassResult()
        cpu0 = cpu_now()
        start = time.perf_counter()
        host = _ServiceHost(self._config(), self.profile)
        host.start()
        try:
            client = ServeClient("127.0.0.1", host.port, timeout=60.0)
            streamed, lag = self._stream(client, host, out, tracer)
            burst = self._burst(client, host, out, tracer)
            warm_records, warm_accepted = self._warm(client, host, out, tracer)
            tenants = ["stream"] + [f"burst{t}" for t in range(self.BURST_TENANTS)]
            records = {r["job_id"]: r for t in tenants for r in client.results(tenant=t)}
            service = host.service
            out.layer["serve.worker_rebuilds"] = service.workers.rebuilds
            out.layer["serve.worker_timeouts"] = service.workers.timeouts
            out.add("campaign.cache_hits", service.cache.hits)
            out.add("campaign.cache_misses", service.cache.misses)
        finally:
            host.stop()
            reap_children()
        out.wall_s = time.perf_counter() - start
        out.cpu_s = cpu_now() - cpu0

        out.layer["client.send_lag_max_s"] = lag
        bad = [j for j, r in records.items()
               if r["state"] != "OK" or r["cache_hit"] or r["executions"] != 1]
        out.check("cold jobs executed once each",
                  not bad and len(records) == len(streamed) + len(burst),
                  f"{len(bad)} bad of {len(records)}")
        warm_bad = [r for r in warm_records if r["state"] != "OK" or not r["cache_hit"]]
        out.check("warm jobs all cache hits",
                  not warm_bad and len(warm_records) == warm_accepted,
                  f"{len(warm_bad)} bad of {len(warm_records)}")
        for job_id, run in {**streamed, **burst}.items():
            rec = records.get(job_id)
            if rec is not None and "result" in rec:
                out.outputs[job_key(run)] = canonical_json(rec["result"])
        for index, local in self.expected.items():
            ok = out.outputs.get(job_key(self.stream[index])) == local
            out.check(f"job {index} result matches in-process invoke", ok)
        out.add("serve.jobs", len(records) + len(warm_records))
        return out

    def _submit(self, client, tenant: str, runs: List[Dict[str, Any]], out: PassResult,
                tracer, label: str) -> List[str]:
        """Submit jobs in one request and return the accepted job ids;
        every refused job counts as a failed operation."""
        out.attempted += len(runs)
        with _span(tracer, "client.submit", label):
            doc = client.submit(tenant, runs, ok=False)
        ids = [a["job_id"] for a in doc["accepted"]] if doc["_status"] == 200 else []
        refused = len(runs) - len(ids)
        if refused:
            out.failed += refused
            out.layer["serve.refused"] = out.layer.get("serve.refused", 0) + refused
        return ids

    def _stream(self, client, host, out: PassResult, tracer) -> Tuple[Dict[str, Dict], float]:
        """Open loop: job ``i`` is due at ``t0 + i / RATE``; its latency
        runs from that due time to its terminal state."""
        due: Dict[str, float] = {}
        jobs: Dict[str, Dict[str, Any]] = {}
        lag = 0.0
        t0 = time.perf_counter() + 0.05
        for i, run in enumerate(self.stream):
            at = t0 + i / self.RATE
            wait = at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lag = max(lag, time.perf_counter() - at)
            for job_id in self._submit(client, "stream", [run], out, tracer, f"stream/{i}"):
                due[job_id], jobs[job_id] = at, run
        if not host.wait_terminal(list(due), timeout=120.0):
            raise RuntimeError("streamed jobs did not finish within 120s")
        latencies = []
        for job_id, at in due.items():
            latency = host.terminal[job_id] - at
            latencies.append(latency)
            out.job_latency[job_key(jobs[job_id])] = latency
        out.ops += latencies
        if self.profile is None:  # the profiler slows the service thread
            self._check_unsaturated(out, latencies)
        return jobs, lag

    def _check_unsaturated(self, out: PassResult, latencies: List[float]) -> None:
        """Above capacity the queue grows with every job, so even the
        fastest job of the stream's last quarter waits for the backlog;
        a passing stall delays only some of them.  Fails once capacity
        is below about 85% of ``RATE``."""
        quarter = max(1, len(latencies) // 4)
        early, late = median(latencies[:quarter]), min(latencies[-quarter:])
        out.check(f"stream at {self.RATE:g} jobs/s does not saturate the service",
                  late <= early + 10 / self.RATE,
                  f"first-quarter median latency {early:.3f}s, last-quarter minimum {late:.3f}s")

    def _burst(self, client, host, out: PassResult, tracer) -> Dict[str, Dict]:
        """Closed loop: the burst matrices back to back, round robin
        over ``BURST_TENANTS`` tenants so no tenant queues past the
        service's admission bound; the primary leg is first submission
        to last terminal state."""
        jobs: Dict[str, Dict[str, Any]] = {}
        t0 = time.perf_counter()
        for i, run in enumerate(self.burst):
            tenant = f"burst{i % self.BURST_TENANTS}"
            for job_id in self._submit(client, tenant, [run], out, tracer, f"{tenant}/{i}"):
                jobs[job_id] = run
        if not host.wait_terminal(list(jobs), timeout=120.0):
            raise RuntimeError("burst jobs did not finish within 120s")
        out.primary_s = max(host.terminal[j] for j in jobs) - t0 if jobs else 0.0
        return jobs

    def _warm(self, client, host, out: PassResult, tracer) -> Tuple[List[Dict], int]:
        """Each warm tenant resubmits the streamed matrix in batches of
        ``WARM_BATCH``, each batch once the one before is done; the
        alternative leg is the median tenant's submit-to-done time."""
        walls, records, accepted = [], [], 0
        for t in range(self.WARM_TENANTS):
            tenant = f"warm{t}"
            ids: List[str] = []
            t0 = time.perf_counter()
            for b in range(0, len(self.stream), self.WARM_BATCH):
                batch = self._submit(client, tenant, self.stream[b:b + self.WARM_BATCH],
                                     out, tracer, f"{tenant}/{b}")
                if not host.wait_terminal(batch, timeout=120.0):
                    raise RuntimeError(f"{tenant} jobs did not finish within 120s")
                ids += batch
            walls.append(max(host.terminal[j] for j in ids) - t0 if ids else 0.0)
            records += list(client.results(tenant=tenant))
            accepted += len(ids)
        out.alt_s = median(walls)
        return records, accepted


WORKLOADS = {
    "paper_balance": PaperBalance,
    "siesta_latency": SiestaLatency,
    "cluster_ladder": ClusterLadder,
    "serve_sweep": ServeSweep,
}


def make(name: str, seed: int, workdir: Path):
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is ServeSweep else cls(seed)
