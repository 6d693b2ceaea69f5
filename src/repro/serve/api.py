"""The service's HTTP/JSON API — stdlib asyncio streams only.

A deliberately small HTTP/1.x server: parse the request line, headers,
and a ``Content-Length`` body, route on ``(method, path)``, answer
with JSON (or NDJSON for result streams), and close the connection.
``Connection: close`` semantics keep the parser to ~40 lines and make
every response self-delimiting; clients issue one request per
connection, which is plenty for a campaign-submission workload.

Endpoints (all under ``/v1``):

========  ==============  ==================================================
method    path            action
========  ==============  ==================================================
POST      /v1/submit      admit + journal a batch of runs for a tenant
GET       /v1/status      one job (``?job=``) or a tenant (``?tenant=``)
GET       /v1/results     NDJSON stream of results (``?job=a&job=b``,
                          ``follow=1`` waits for non-terminal jobs)
POST      /v1/cancel      cancel one job (queued or running)
GET       /v1/metrics     scheduler/queue/cache/tenant counters
POST      /v1/tick        advance the virtual epoch clock (manual mode)
POST      /v1/drain       stop admitting, wait for the queue to empty
GET       /v1/healthz     liveness probe
========  ==============  ==================================================

Rejected submissions answer ``429`` (queue bounds, with
``Retry-After``) or ``503`` (draining), mirroring the admission
decision exactly.

Over HTTP a run names a *registered* experiment and nothing else: a
``runner`` (``module:function``) or an unknown ``experiment`` id is a
``400`` before anything is journaled, so a client can never make a
worker import and call code of its choosing.  In-process callers of
:meth:`CampaignService.submit` and campaign spec files keep ``runner``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import asyncio

from repro.campaign.spec import RunSpec
from repro.experiments.registry import all_ids
from repro.serve.stream import ndjson_line, stream_jobs

#: Cap on request bodies — campaign batches are small; anything larger
#: is a client bug, not a workload.
MAX_BODY = 8 * 1024 * 1024


class _BadRequest(Exception):
    """Client error carrying the message to send back."""


async def handle_connection(
    service: "CampaignService",  # noqa: F821  (import cycle: service->api)
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve exactly one request, then close."""
    try:
        request = await _read_request(reader)
        if request is None:
            return
        method, path, query, body = request
        await _route(service, method, path, query, body, writer)
    except _BadRequest as exc:
        await _send_json(writer, 400, {"error": str(exc)})
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # client went away mid-request/response
    except Exception as exc:  # never kill the server on a handler bug
        try:
            await _send_json(writer, 500, {"error": f"internal: {exc!r}"})
        except (ConnectionError, OSError):
            pass
    finally:
        # Half-close before close: shutdown(SHUT_WR) sends a FIN on the
        # connection itself, so the client sees EOF even when a forked
        # pool worker inherited a duplicate of this socket's fd (fork
        # ignores non-inheritable flags; a plain close() would leave
        # the connection half-open and streaming clients hanging).
        try:
            if writer.can_write_eof():
                writer.write_eof()
        except (ConnectionError, OSError, RuntimeError):
            pass
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, List[str]], bytes]]:
    """Parse one HTTP/1.x request; ``None`` on immediate EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _BadRequest("malformed request line")
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY:
        raise _BadRequest(f"request body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    parts = urlsplit(target)
    return method.upper(), parts.path, parse_qs(parts.query), body


def _json_body(body: bytes) -> Dict[str, Any]:
    if not body:
        raise _BadRequest("expected a JSON body")
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _BadRequest(f"invalid JSON body: {exc}")
    if not isinstance(obj, dict):
        raise _BadRequest("JSON body must be an object")
    return obj


async def _route(
    service: "CampaignService",  # noqa: F821
    method: str,
    path: str,
    query: Dict[str, List[str]],
    body: bytes,
    writer: asyncio.StreamWriter,
) -> None:
    if (method, path) == ("POST", "/v1/submit"):
        await _submit(service, body, writer)
    elif (method, path) == ("GET", "/v1/status"):
        await _status(service, query, writer)
    elif (method, path) == ("GET", "/v1/results"):
        await _results(service, query, writer)
    elif (method, path) == ("POST", "/v1/cancel"):
        await _cancel(service, body, writer)
    elif (method, path) == ("GET", "/v1/metrics"):
        await _send_json(writer, 200, service.metrics())
    elif (method, path) == ("POST", "/v1/tick"):
        await _tick(service, body, writer)
    elif (method, path) == ("POST", "/v1/drain"):
        await _drain(service, body, writer)
    elif (method, path) == ("GET", "/v1/healthz"):
        await _send_json(
            writer, 200, {"ok": True, "epoch": service.clock.epoch}
        )
    else:
        await _send_json(
            writer, 404, {"error": f"no route for {method} {path}"}
        )


async def _submit(
    service: "CampaignService",  # noqa: F821
    body: bytes,
    writer: asyncio.StreamWriter,
) -> None:
    """``{"tenant": ..., "runs": [{"experiment": ..., ...}, ...]}``."""
    payload = _json_body(body)
    tenant = payload.get("tenant")
    if not tenant or not isinstance(tenant, str):
        raise _BadRequest("missing 'tenant'")
    if "/" in tenant:
        raise _BadRequest("tenant names must not contain '/'")
    runs = payload.get("runs")
    if not isinstance(runs, list) or not runs:
        raise _BadRequest("'runs' must be a non-empty list")
    known = set(all_ids())
    specs: List[Tuple[RunSpec, str]] = []
    for i, run in enumerate(runs):
        if not isinstance(run, dict) or "experiment" not in run:
            raise _BadRequest(f"runs[{i}] needs an 'experiment'")
        if run.get("runner") is not None:
            raise _BadRequest(
                f"runs[{i}]: 'runner' is not accepted over HTTP; "
                "name a registered experiment"
            )
        experiment = run["experiment"]
        if not isinstance(experiment, str) or experiment not in known:
            raise _BadRequest(f"runs[{i}]: unknown experiment {experiment!r}")
        tag = str(run.get("tag", ""))
        try:
            spec = RunSpec(
                experiment=experiment,
                params=dict(run.get("params", {})),
                seed=run.get("seed"),
                timeout=run.get("timeout"),
            )
        except (TypeError, ValueError) as exc:
            raise _BadRequest(f"runs[{i}]: {exc}")
        specs.append((spec, tag))
    accepted, rejection = service.submit(tenant, specs)
    doc = {
        "tenant": tenant,
        "accepted": [job.to_public() for job in accepted],
        "rejected": len(specs) - len(accepted),
    }
    if rejection is None:
        await _send_json(writer, 200, doc)
    else:
        doc["error"] = rejection.reason
        headers = {}
        if rejection.retry_after is not None:
            headers["Retry-After"] = str(rejection.retry_after)
        await _send_json(writer, rejection.status, doc, headers)


async def _status(
    service: "CampaignService",  # noqa: F821
    query: Dict[str, List[str]],
    writer: asyncio.StreamWriter,
) -> None:
    job_ids = query.get("job", [])
    tenants = query.get("tenant", [])
    if job_ids:
        job = service.queue.get(job_ids[0])
        if job is None:
            await _send_json(
                writer, 404, {"error": f"unknown job {job_ids[0]!r}"}
            )
        else:
            await _send_json(writer, 200, job.to_public())
    elif tenants:
        jobs = service.queue.jobs_for(tenants[0])
        await _send_json(
            writer,
            200,
            {
                "tenant": tenants[0],
                "jobs": [job.to_public() for job in jobs],
            },
        )
    else:
        raise _BadRequest("need ?job=<id> or ?tenant=<name>")


async def _results(
    service: "CampaignService",  # noqa: F821
    query: Dict[str, List[str]],
    writer: asyncio.StreamWriter,
) -> None:
    """NDJSON result stream; ``follow=1`` waits on running jobs."""
    job_ids = query.get("job", [])
    if not job_ids and query.get("tenant"):
        job_ids = [
            job.job_id for job in service.queue.jobs_for(query["tenant"][0])
        ]
    if not job_ids:
        raise _BadRequest("need ?job=<id> (repeatable) or ?tenant=<name>")
    follow = query.get("follow", ["0"])[0] not in ("0", "", "false")
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )
    await writer.drain()
    if follow:
        async for line in stream_jobs(
            job_ids, service.queue.get, service.broker, with_results=True
        ):
            writer.write(line)
            await writer.drain()
    else:
        for jid in job_ids:
            job = service.queue.get(jid)
            if job is None:
                writer.write(ndjson_line({"job_id": jid, "state": "UNKNOWN"}))
            else:
                writer.write(ndjson_line(job.to_public(with_result=True)))
            await writer.drain()


async def _cancel(
    service: "CampaignService",  # noqa: F821
    body: bytes,
    writer: asyncio.StreamWriter,
) -> None:
    payload = _json_body(body)
    job_id = payload.get("job")
    if not job_id:
        raise _BadRequest("missing 'job'")
    job = service.cancel(job_id)
    if job is None:
        existing = service.queue.get(job_id)
        if existing is None:
            await _send_json(
                writer, 404, {"error": f"unknown job {job_id!r}"}
            )
        else:  # already terminal — cancelling is a no-op, say so
            await _send_json(
                writer,
                409,
                {"error": f"job is already {existing.state}",
                 "job": existing.to_public()},
            )
    else:
        await _send_json(writer, 200, job.to_public())


async def _tick(
    service: "CampaignService",  # noqa: F821
    body: bytes,
    writer: asyncio.StreamWriter,
) -> None:
    payload = _json_body(body) if body else {}
    epochs = int(payload.get("epochs", 1))
    if epochs < 1 or epochs > 10_000:
        raise _BadRequest("epochs must be in [1, 10000]")
    epoch = service.clock.advance(epochs)
    await _send_json(
        writer,
        200,
        {
            "epoch": epoch,
            "balancer": service.balancer.snapshot(),
        },
    )


async def _drain(
    service: "CampaignService",  # noqa: F821
    body: bytes,
    writer: asyncio.StreamWriter,
) -> None:
    payload = _json_body(body) if body else {}
    timeout = payload.get("timeout")
    drained = await service.drain(
        timeout=float(timeout) if timeout is not None else None
    )
    await _send_json(
        writer,
        200 if drained else 504,
        {"drained": drained, "pending": service.queue.pending()},
    )


async def _send_json(
    writer: asyncio.StreamWriter,
    status: int,
    doc: Dict[str, Any],
    headers: Optional[Dict[str, str]] = None,
) -> None:
    body = json.dumps(doc, sort_keys=True).encode("utf-8")
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        409: "Conflict",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
        504: "Gateway Timeout",
    }.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
    )
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    writer.write(head.encode("latin-1") + b"\r\n" + body)
    await writer.drain()
