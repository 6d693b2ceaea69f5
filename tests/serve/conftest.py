"""Serve-test fixtures: run descriptors, in-loop waiting, a threaded
service harness for the HTTP tests."""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Dict, Optional

import pytest

from repro.campaign.spec import RunSpec
from repro.serve import CampaignService, Job, ServeConfig, ServeClient, job_id_for

from tests.campaign import stubs as campaign_stubs
from tests.serve import stubs as serve_stubs

#: Stub runs registered as experiments for the HTTP tests: the API
#: accepts registered experiment ids only, never a ``runner`` path.
STUB_EXPERIMENTS = {
    "serve_stub_ok": campaign_stubs.ok_run,
    "serve_stub_gate": serve_stubs.gate_run,
    "serve_stub_counted": serve_stubs.counted_run,
}


@pytest.fixture
def stub_experiments(monkeypatch):
    """Register :data:`STUB_EXPERIMENTS` for one test.

    Process-mode workers fork from the test process, so the entries
    must be in the registry before the service starts its pool.
    """
    from repro.experiments.registry import EXPERIMENTS

    for name, fn in STUB_EXPERIMENTS.items():
        monkeypatch.setitem(EXPERIMENTS, name, fn)


def ok_run(seed: int = 0, value: float = 1.0) -> Dict[str, Any]:
    """A run descriptor for the always-succeeding campaign stub."""
    return {
        "experiment": "serve_stub_ok",
        "params": {"value": value},
        "seed": seed,
    }


def gate_run(gate_dir: str, token: str, seed: int = 0) -> Dict[str, Any]:
    """A run descriptor that blocks until ``<gate_dir>/<token>`` exists."""
    return {
        "experiment": "serve_stub_gate",
        "params": {"gate_dir": str(gate_dir), "token": token},
        "seed": seed,
    }


def counted_run(count_dir: str, seed: int = 0) -> Dict[str, Any]:
    """A run descriptor leaving one marker file per execution."""
    return {
        "experiment": "serve_stub_counted",
        "params": {"count_dir": str(count_dir)},
        "seed": seed,
    }


def make_job(tenant: str = "t", seed: int = 0, tag: str = "") -> Job:
    """A journal-ready job; ``seed`` varies the spec (and cache key)."""
    spec = RunSpec(experiment="stub", params={"value": 1.0}, seed=seed)
    return Job(
        job_id=job_id_for(tenant, spec, tag),
        tenant=tenant,
        spec=spec.to_payload(),
        cache_key="k" + str(seed),
    )


def serve_config(root, **overrides) -> ServeConfig:
    """Test defaults: thread workers, manual clock, ephemeral port."""
    kw: Dict[str, Any] = dict(
        root=str(root),
        workers=1,
        worker_mode="thread",
        manual_clock=True,
        epoch_interval=None,
    )
    kw.update(overrides)
    return ServeConfig(**kw)


async def wait_until(
    pred: Callable[[], bool], timeout: float = 15.0, interval: float = 0.01
) -> None:
    """Poll ``pred`` on the loop until true (test plumbing only — the
    service's own decision path never sleeps)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not pred():
        if loop.time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(interval)


class ServiceThread:
    """A campaign service on its own thread + event loop.

    The service object is constructed *inside* the loop thread (the
    SQLite journal is single-threaded by design), and the test talks
    to it over HTTP only — exactly like an external client.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.service: Optional[CampaignService] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.service = CampaignService(self.config)
        await self.service.start()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.service.stop()

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise TimeoutError("service never became ready")
        if self._error is not None:
            raise self._error
        return self

    def client(self, timeout: float = 30.0) -> ServeClient:
        assert self.service is not None
        return ServeClient(
            self.config.host, self.service.port, timeout=timeout
        )

    def stop(self) -> None:
        if self.loop is not None and self._stop is not None:
            self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise TimeoutError("service thread failed to stop")
        if self._error is not None:
            raise self._error


@pytest.fixture
def http_service(tmp_path, stub_experiments):
    """A running threaded service; yields the harness, always stops it."""
    harnesses = []

    def _start(**overrides) -> ServiceThread:
        root = tmp_path / f"svc{len(harnesses)}"
        harness = ServiceThread(serve_config(root, **overrides)).start()
        harnesses.append(harness)
        return harness

    yield _start
    for harness in harnesses:
        harness.stop()
