"""Bounded end-to-end self-test: ``repro-hpcsched serve --smoke``.

Boots a real :class:`~repro.serve.service.CampaignService` on an
ephemeral port, then drives the acceptance scenario from the
outside, over HTTP, exactly as three independent tenants would:

0. a run naming a ``runner`` callable is refused with ``400`` and
   leaves the journal untouched (HTTP accepts registered experiments
   only);
1. tenant *alice* runs the built-in ``smoke`` campaign matrix and
   streams her results (NDJSON, ``follow=1``);
2. *bob* and *carol* submit the identical matrix and are answered
   entirely from the shared content-addressed cache — zero extra
   executions;
3. three virtual epochs of one-sided demand shift the fair-share
   priorities toward alice (the paper's Adaptive heuristic), and a
   demand reversal swaps them within one further epoch — every epoch
   advanced explicitly via ``POST /v1/tick``, no sleeps in the
   decision path;
4. the service drains, then a restart on the same root serves every
   result straight from the journal.

The whole scenario is deterministic and finishes in a few seconds, so
CI runs it under a hard wall-clock budget.  Exit code 0 means every
check passed; the first failed check aborts with a ``FAIL:`` line.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.serve.client import ServeClient
from repro.serve.state import ServeConfig


class SmokeFailure(AssertionError):
    """One smoke check did not hold."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise SmokeFailure(message)


class _ServiceHost:
    """Run a CampaignService on a dedicated thread + event loop.

    The service object is constructed *inside* the loop thread (the
    SQLite journal is single-threaded); the caller talks to it over
    HTTP only, which is the point of the exercise.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="serve-smoke", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface boot/teardown failures
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        from repro.serve.service import CampaignService

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        service = CampaignService(self.config)
        await service.start()
        self.port = service.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await service.stop()

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise SmokeFailure("service did not come up within 30s")
        if self._error is not None:
            raise self._error

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():
            raise SmokeFailure("service did not shut down within 30s")
        if self._error is not None:
            raise self._error


def _smoke_matrix() -> List[Dict[str, Any]]:
    """The built-in ``smoke`` campaign as submit-API run descriptors."""
    from repro.campaign.spec import builtin_campaign

    runs: List[Dict[str, Any]] = []
    for spec in builtin_campaign("smoke").runs:
        run: Dict[str, Any] = {
            "experiment": spec.experiment,
            "params": dict(spec.params),
        }
        if spec.seed is not None:
            run["seed"] = spec.seed
        runs.append(run)
    return runs


def _submit_and_stream(
    client: ServeClient,
    tenant: str,
    runs: List[Dict[str, Any]],
    tag: str = "",
) -> List[Dict[str, Any]]:
    """Submit one tenant round and follow the NDJSON stream to OK."""
    batch = [dict(run, **({"tag": tag} if tag else {})) for run in runs]
    doc = client.submit(tenant, batch)
    _check(doc["rejected"] == 0, f"{tenant}: batch partially rejected")
    job_ids = [job["job_id"] for job in doc["accepted"]]
    records = list(client.results(jobs=job_ids, follow=True))
    _check(
        len(records) == len(job_ids),
        f"{tenant}: streamed {len(records)} records for {len(job_ids)} jobs",
    )
    for rec in records:
        _check(
            rec["state"] == "OK",
            f"{tenant}: job {rec['job_id']} ended {rec['state']} "
            f"({rec.get('error')})",
        )
        _check("result" in rec, f"{tenant}: {rec['job_id']} has no result")
    return records


def run_smoke(
    root: Optional[str] = None,
    workers: int = 2,
    worker_mode: str = "process",
    out: Callable[[str], None] = print,
) -> int:
    """Drive the full smoke scenario; returns a process exit code."""
    started = time.monotonic()
    tmp: Optional[tempfile.TemporaryDirectory] = None
    if root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-smoke-")
        root = tmp.name

    def step(message: str) -> None:
        out(f"  ok  {message}  [{time.monotonic() - started:5.1f}s]")

    config = ServeConfig(
        root=root,
        port=0,
        workers=workers,
        worker_mode=worker_mode,
        manual_clock=True,
        epoch_interval=None,
        labels={"smoke": "1"},
    )
    matrix = _smoke_matrix()
    host = _ServiceHost(config)
    try:
        host.start()
        assert host.port is not None
        client = ServeClient(config.host, host.port, timeout=60.0)
        out(
            f"serve smoke: http://{config.host}:{host.port} "
            f"({workers} {worker_mode} workers, root={root})"
        )

        health = client.healthz()
        _check(health["ok"] and health["epoch"] == 0, "healthz")
        step("healthz answers at epoch 0")

        # The HTTP boundary: a run naming a ``runner`` (code for a
        # worker to import and call) is refused before it is journaled.
        rows = sum(client.metrics()["states"].values())
        refused = client.submit(
            "mallory",
            [dict(matrix[0], runner="subprocess:getoutput")],
            ok=False,
        )
        _check(
            refused["_status"] == 400,
            f"a run naming a runner answers 400, got {refused['_status']}",
        )
        _check(
            sum(client.metrics()["states"].values()) == rows,
            "a refused run must not be journaled",
        )
        step("a run naming a runner answered 400, nothing journaled")

        # Round 1: alice executes the matrix for real.
        alice = _submit_and_stream(client, "alice", matrix)
        _check(
            all(not rec["cache_hit"] for rec in alice),
            "alice's first round should execute, not hit the cache",
        )
        step(f"alice ran the {len(matrix)}-run matrix and streamed results")

        # bob and carol submit the identical matrix: the shared
        # content-addressed cache answers without a single execution.
        for tenant in ("bob", "carol"):
            records = _submit_and_stream(client, tenant, matrix)
            _check(
                all(rec["cache_hit"] for rec in records),
                f"{tenant}'s duplicate matrix must be all cache hits",
            )
            _check(
                all(rec["executions"] == 0 for rec in records),
                f"{tenant}'s jobs must not execute",
            )
        step("bob + carol answered from the cross-tenant cache (0 executions)")

        tick = client.tick()
        prios = tick["balancer"]["priorities"]
        _check(
            tick["epoch"] == 1
            and set(prios.values()) == {config.max_prio},
            f"epoch 1: every demanding tenant at max priority, got {prios}",
        )
        step(f"epoch 1 closed: all tenants promoted to {config.max_prio}")

        # Epochs 2-3: only alice keeps demanding (tags force new job
        # ids; the cache still answers, so no extra executions).
        for tag in ("r2", "r3"):
            _submit_and_stream(client, "alice", matrix, tag=tag)
            tick = client.tick()
        prios = tick["balancer"]["priorities"]
        _check(
            prios == {"alice": config.max_prio,
                      "bob": config.min_prio,
                      "carol": config.min_prio},
            f"epoch 3: slots should favor alice, got {prios}",
        )
        _check(
            tick["balancer"]["state"] == "frozen",
            f"epoch 3: balancer should be frozen, is {tick['balancer']['state']}",
        )
        step(
            f"epochs 2-3: fair share converged to alice={config.max_prio}, "
            f"others={config.min_prio} (frozen)"
        )

        # The reversal: bob becomes the laggard, alice idles.
        _submit_and_stream(client, "bob", matrix, tag="r4")
        tick = client.tick()
        prios = tick["balancer"]["priorities"]
        _check(
            prios == {"alice": config.min_prio,
                      "bob": config.max_prio,
                      "carol": config.min_prio},
            f"epoch 4: reversal should swap alice/bob, got {prios}",
        )
        step("epoch 4: demand reversal thawed + swapped priorities in 1 epoch")

        total_jobs = 6 * len(matrix)  # alice x3, bob x2, carol x1
        metrics = client.metrics()
        _check(
            metrics["states"] == {"OK": total_jobs},
            f"every job OK, got {metrics['states']}",
        )
        _check(
            metrics["cache"]["hits"] == total_jobs - len(matrix)
            and metrics["cache"]["misses"] == len(matrix),
            f"exactly one real execution per matrix cell, got "
            f"{metrics['cache']}",
        )
        _check(
            metrics["balancer"]["behaviour_changes"] == 1,
            "exactly one detected behaviour change (the reversal)",
        )
        step(
            f"metrics: {total_jobs} jobs OK, {len(matrix)} executions, "
            f"{total_jobs - len(matrix)} cache hits, 1 behaviour change"
        )

        drained = client.drain(timeout=30.0)
        _check(drained["drained"] and drained["pending"] == 0, "drain")
        rejected = client.submit("alice", matrix, ok=False)
        _check(
            rejected["_status"] == 503,
            f"post-drain submissions answer 503, got {rejected['_status']}",
        )
        step("drain completed; new submissions answer 503")
    except (SmokeFailure, Exception) as exc:
        out(f"FAIL: {exc}")
        try:
            host.stop()
        except Exception:
            pass
        if tmp is not None:
            tmp.cleanup()
        return 1

    # Restart on the same root: the journal is the source of truth.
    try:
        host.stop()
        host2 = _ServiceHost(config)
        host2.start()
        assert host2.port is not None
        client = ServeClient(config.host, host2.port, timeout=60.0)
        metrics = client.metrics()
        _check(
            metrics["states"] == {"OK": total_jobs},
            f"restart must serve all journaled jobs, got {metrics['states']}",
        )
        _check(
            metrics["recovered_jobs"] == 0,
            "a clean shutdown leaves nothing to recover",
        )
        record = next(
            client.results(jobs=[alice[0]["job_id"]], follow=False)
        )
        _check(
            record["state"] == "OK" and record["result"] == alice[0]["result"],
            "restart must serve byte-identical journaled results",
        )
        step("restart on the same root served journaled results unchanged")
        host2.stop()
    except (SmokeFailure, Exception) as exc:
        out(f"FAIL: {exc}")
        return 1
    finally:
        if tmp is not None:
            tmp.cleanup()

    out(
        f"serve smoke PASSED in {time.monotonic() - started:.1f}s "
        f"({total_jobs} jobs, {len(matrix)} executions, "
        f"{total_jobs - len(matrix)} cache hits)"
    )
    return 0
