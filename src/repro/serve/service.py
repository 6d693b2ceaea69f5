"""The campaign service: queue + fair-share scheduler + workers.

:class:`CampaignService` is the composition root.  One asyncio event
loop owns everything:

* submissions go through admission control, are journaled by the
  :class:`~repro.serve.queue.JobQueue`, and wake the dispatcher;
* the **dispatcher** fills free worker slots: the fair-share scheduler
  picks the tenant (stride over balancer priorities), the tenant's
  oldest queued job is looked up in the shared content-addressed
  :class:`~repro.campaign.cache.ResultCache` (cross-tenant: equal
  specs share results regardless of submitter) and either completes
  instantly or is claimed and executed on the worker pool;
* the **epoch tick** closes a balancer epoch: each tenant's demand
  fraction this epoch feeds the ported imbalance detector, which may
  reassign worker-slot priorities.  Ticks come from the injected
  :class:`~repro.serve.state.VirtualClock` — a wall-clock task in
  production, explicit ``advance()`` in tests — so every scheduling
  decision is deterministic given the same submission/completion
  sequence;
* **drain** flips admission off and waits for the journal to empty of
  non-terminal jobs; **stop** tears down the server, workers, and
  journal connection.

Crash safety: anything the service acknowledged is in the journal.  On
restart, terminal jobs are served from the journal, ``RUNNING`` jobs
are re-queued (and usually complete from cache if their first
execution finished), and tenant accounting is rebuilt by folding the
journal.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.cache import ResultCache
from repro.campaign.spec import RunSpec
from repro.serve.admission import AdmissionController
from repro.serve.queue import JobQueue
from repro.serve.scheduler import (
    BalancerConfig,
    FairShareBalancer,
    FairShareScheduler,
)
from repro.serve.state import (
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_OK,
    JOB_QUEUED,
    JOB_RUNNING,
    Job,
    ServeConfig,
    VirtualClock,
    job_id_for,
)
from repro.serve.stream import EventBroker
from repro.serve.tenants import TenantRegistry
from repro.serve.workers import (
    OUTCOME_LOST,
    OUTCOME_OK,
    WorkerPool,
)
from repro.hpcsched.bands import BandConfig


class CampaignService:
    """A long-running, multi-tenant campaign execution service."""

    def __init__(
        self,
        config: ServeConfig,
        clock: Optional[VirtualClock] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.config = config
        root = Path(config.root)
        self.clock = clock or VirtualClock()
        self.queue = JobQueue(root / "jobs.db")
        self.registry = TenantRegistry(base_priority=config.min_prio)
        self.balancer = FairShareBalancer(
            self.registry,
            BalancerConfig(
                heuristic=config.heuristic,
                band=BandConfig(
                    low_util=config.low_util,
                    high_util=config.high_util,
                    min_prio=config.min_prio,
                    max_prio=config.max_prio,
                ),
                adaptive_g=config.adaptive_g,
                adaptive_l=config.adaptive_l,
                rebalance_delta=config.rebalance_delta,
            ),
        )
        self.scheduler = FairShareScheduler(self.registry)
        self.admission = AdmissionController(
            max_tenant_depth=config.max_tenant_depth,
            max_total_depth=config.max_total_depth,
        )
        self.workers = WorkerPool(
            slots=config.workers,
            mode=config.worker_mode,
            timeout=config.job_timeout,
        )
        self.cache = cache or ResultCache(
            root / "cache", enabled=config.cache_enabled
        )
        self.broker = EventBroker()
        self.clock.subscribe(self._on_epoch)

        self._server: Optional[asyncio.base_events.Server] = None
        self._inflight: Dict[str, asyncio.Task] = {}
        self._wake: Optional[asyncio.Event] = None
        self._dispatch_task: Optional[asyncio.Task] = None
        self._clock_task: Optional[asyncio.Task] = None
        self._stopped = False
        #: Tenants that had work pending/running at any point since the
        #: last epoch close (the balancer's demand signal).
        self._active_tenants: set = set()
        self.recovered_jobs: List[Job] = []

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Open the journal, recover, bind the API, start dispatching."""
        from repro.serve.api import handle_connection

        self.recovered_jobs = self.queue.recover()
        self._rebuild_accounting()
        self._wake = asyncio.Event()
        self._dispatch_task = asyncio.create_task(self._dispatch_loop())
        if self.config.epoch_interval and not self.config.manual_clock:
            self._clock_task = asyncio.create_task(self._clock_loop())
        self._server = await asyncio.start_server(
            lambda r, w: handle_connection(self, r, w),
            host=self.config.host,
            port=self.config.port,
        )
        self._kick()

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        """``host:port`` of the bound API socket."""
        return f"{self.config.host}:{self.port}"

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting; wait for every accepted job to finish.

        Returns ``True`` when the queue drained, ``False`` on timeout
        (remaining jobs stay journaled for the next start).
        """
        self.admission.draining = True
        self._kick()

        async def _empty() -> None:
            version = self.broker.version
            while self.queue.pending() > 0:
                version = await self.broker.wait(version)

        try:
            await asyncio.wait_for(_empty(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def stop(self) -> None:
        """Tear the service down (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in (self._dispatch_task, self._clock_task):
            if task is not None:
                task.cancel()
        for task in list(self._inflight.values()):
            task.cancel()
        pending = [
            t
            for t in [self._dispatch_task, self._clock_task]
            + list(self._inflight.values())
            if t is not None
        ]
        for task in pending:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._inflight.clear()
        self.workers.shutdown()
        self.queue.close()

    def abandon(self) -> None:
        """Simulate a crash: drop everything without journaling.

        Test hook for kill-9 semantics — the journal keeps whatever the
        last transition wrote; in-flight work is simply lost.
        """
        self._stopped = True
        if self._server is not None:
            self._server.close()
        for task in (self._dispatch_task, self._clock_task):
            if task is not None:
                task.cancel()
        for task in self._inflight.values():
            task.cancel()
        self._inflight.clear()
        self.workers.shutdown()
        self.queue.close()

    # -- submission ----------------------------------------------------

    def submit(
        self, tenant: str, specs: List[Tuple[RunSpec, str]]
    ) -> Tuple[List[Job], Optional[Any]]:
        """Admit and journal a batch of runs for ``tenant``.

        ``specs`` is a list of ``(RunSpec, tag)`` pairs.  Admission is
        checked per job as the batch lands, so a batch can be partially
        accepted; the first rejection is returned alongside the
        accepted jobs.  The accepted jobs are journaled in one
        transaction, committed before return.
        """
        accepted: List[Job] = []
        rejection = None
        acct = self.registry.get(tenant)
        # Nothing else touches the queue until this call returns, so
        # the depths are read once and then counted locally.
        tenant_depth = self.queue.depth(tenant)
        total_depth = self.queue.depth()
        with self.queue.transaction():
            for spec, tag in specs:
                decision = self.admission.admit(
                    tenant_depth=tenant_depth, total_depth=total_depth
                )
                if not decision.ok:
                    acct.rejections += 1
                    rejection = decision
                    break
                job = Job(
                    job_id=job_id_for(tenant, spec, tag),
                    tenant=tenant,
                    spec=spec.to_payload(),
                    cache_key=(
                        self.cache.key_for(spec) if self.cache.enabled else ""
                    ),
                    submitted_epoch=self.clock.epoch,
                )
                job, created = self.queue.submit(job)
                if created:
                    acct.submitted += 1
                    tenant_depth += 1
                    total_depth += 1
                    self.scheduler.rejoin(tenant)
                accepted.append(job)
        self._active_tenants.add(tenant)
        self._kick()
        return accepted, rejection

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job; running executions are discarded on landing."""
        job = self.queue.cancel(job_id, self.clock.epoch)
        if job is not None:
            acct = self.registry.get(job.tenant)
            acct.cancelled += 1
            task = self._inflight.get(job_id)
            if task is not None:
                task.cancel()
            self.broker.publish()
            self._kick()
        return job

    # -- dispatch ------------------------------------------------------

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            self._fill_slots()

    def _fill_slots(self) -> None:
        """Hand queued jobs to free slots, fair-share order.

        Each slot fill reads one head job per tenant with queued work
        (``JobQueue.heads``), whatever the backlog.  The whole pass is
        one journal transaction: cache-hit completions and claims are
        committed before any claimed job is handed to a worker and
        before any stream is notified.
        """
        free = self.workers.slots - len(self._inflight)
        claimed: List[Job] = []
        completed = False
        with self.queue.transaction():
            while len(claimed) < free:
                heads = {job.tenant: job for job in self.queue.heads()}
                if not heads:
                    break
                self._active_tenants.update(heads)
                tenant = self.scheduler.pick(list(heads))
                job = heads[tenant]

                # Cross-tenant content-addressed cache: a result computed
                # for any tenant answers every identical spec instantly,
                # without consuming a worker slot.
                if job.cache_key:
                    data = self.cache.get(job.cache_key)
                    if data is not None:
                        self.queue.complete(
                            job.job_id, data, self.clock.epoch, cache_hit=True
                        )
                        acct = self.registry.get(tenant)
                        acct.completed += 1
                        acct.cache_hits += 1
                        completed = True
                        continue

                # heads() just read it QUEUED in this transaction, so
                # the claim cannot lose a race.
                claimed.append(self.queue.claim(job.job_id, self.clock.epoch))
                self.scheduler.charge(tenant)
        if claimed or completed:
            self.broker.publish()
        for job in claimed:
            self._inflight[job.job_id] = asyncio.create_task(
                self._run_job(job)
            )

    async def _run_job(self, job: Job) -> None:
        spec = job.run_spec()
        timeout = (
            spec.timeout if spec.timeout is not None else self.config.job_timeout
        )
        try:
            status, data, _wall = await self.workers.run(
                job.spec, timeout=timeout
            )
        finally:
            self._inflight.pop(job.job_id, None)
        if self._stopped:
            # Torn down (stop/abandon) while the run was in flight: the
            # journal must stay exactly as the last transition left it
            # (RUNNING rows are what crash recovery re-queues).
            raise asyncio.CancelledError()
        acct = self.registry.get(job.tenant)
        if status == OUTCOME_OK:
            payload = data.encode("utf-8")
            if job.cache_key:
                self.cache.put(job.cache_key, payload)
            done = self.queue.complete(job.job_id, payload, self.clock.epoch)
            if done is not None:
                acct.completed += 1
            # else: cancelled mid-run; the result is discarded (the
            # cache write above still benefits future identical specs).
        elif status == OUTCOME_LOST:
            # Not the run's fault: requeue without burning an attempt.
            self.queue.requeue(job.job_id, data)
        else:
            current = self.queue.get(job.job_id)
            if current is not None and current.state == JOB_RUNNING:
                if job.attempt <= self.config.retries:
                    self.queue.requeue(job.job_id, data)
                else:
                    self.queue.fail(job.job_id, data, self.clock.epoch)
                    acct.failed += 1
        self.broker.publish()
        self._kick()

    # -- epochs --------------------------------------------------------

    async def _clock_loop(self) -> None:
        """Wall-clock epoch driver (production mode only).

        The *only* place wall time exists; everything downstream of
        ``clock.advance`` is pure epoch arithmetic.
        """
        assert self.config.epoch_interval is not None
        while True:
            await asyncio.sleep(self.config.epoch_interval)
            self.clock.advance()

    def _on_epoch(self, _epoch: int) -> None:
        """Close a balancer epoch: demand -> utilization -> priorities.

        A tenant demanded this epoch when it had work pending or
        running at any point since the previous tick (the accumulated
        ``_active_tenants`` set) — the service-side analogue of a task
        having spent the iteration computing rather than waiting.
        """
        still_active = {
            name
            for name in self.registry.names()
            if self.queue.depth(name) > 0
        }
        for jid in list(self._inflight):
            job = self.queue.get(jid)
            if job is not None:
                still_active.add(job.tenant)
        demand = {
            acct.name: 1.0
            if (acct.name in self._active_tenants or acct.name in still_active)
            else 0.0
            for acct in self.registry.all()
        }
        self._active_tenants = still_active
        self.balancer.close_epoch(demand)

    # -- accounting / metrics -----------------------------------------

    def _rebuild_accounting(self) -> None:
        """Fold the journal into tenant counters after a restart."""
        for job in self.queue.all_jobs():
            acct = self.registry.get(job.tenant)
            acct.submitted += 1
            if job.state == JOB_OK:
                acct.completed += 1
                if job.cache_hit:
                    acct.cache_hits += 1
            elif job.state == JOB_FAILED:
                acct.failed += 1
            elif job.state == JOB_CANCELLED:
                acct.cancelled += 1
            elif job.state == JOB_QUEUED:
                self._active_tenants.add(job.tenant)

    def metrics(self) -> Dict[str, Any]:
        """The ``/v1/metrics`` document."""
        return {
            "epoch": self.clock.epoch,
            "states": self.queue.counts(),
            "inflight": len(self._inflight),
            "worker_slots": self.workers.slots,
            "worker_mode": self.workers.mode,
            "worker_rebuilds": self.workers.rebuilds,
            "worker_timeouts": self.workers.timeouts,
            "balancer": self.balancer.snapshot(),
            "admission": self.admission.snapshot(),
            "tenants": self.registry.snapshot(),
            "cache": {
                "enabled": self.cache.enabled,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            },
            "labels": dict(self.config.labels),
            "recovered_jobs": len(self.recovered_jobs),
        }
