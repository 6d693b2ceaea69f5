"""The HTTP surface, exercised exactly as an external client would.

The service runs on its own thread and event loop (conftest
``ServiceThread``); the tests speak stdlib HTTP through
:class:`repro.serve.client.ServeClient`.  All scheduling assertions
drive the virtual clock over ``POST /v1/tick`` — no wall-clock sleeps
anywhere in the decision path.
"""

import pytest

from repro.serve import ServeError

from tests.serve.conftest import counted_run, gate_run, ok_run


def wait_all_ok(client, job_ids, timeout=30.0):
    """Follow the result stream until every job is terminal."""
    records = list(client.results(jobs=job_ids, follow=True, timeout=timeout))
    assert len(records) == len(job_ids)
    return {rec["job_id"]: rec for rec in records}


def test_healthz_and_metrics(http_service):
    client = http_service().client()
    health = client.healthz()
    assert health["ok"] and health["epoch"] == 0
    metrics = client.metrics()
    assert metrics["worker_slots"] == 1
    assert metrics["balancer"]["heuristic"] == "adaptive"
    assert metrics["states"] == {}


def test_submit_stream_and_status_roundtrip(http_service, tmp_path):
    client = http_service().client()
    batch = [ok_run(seed=s, value=2.0) for s in range(3)]
    doc = client.submit("alice", batch)
    assert len(doc["accepted"]) == 3 and doc["rejected"] == 0
    job_ids = [job["job_id"] for job in doc["accepted"]]

    by_id = wait_all_ok(client, job_ids)
    for seed, jid in enumerate(job_ids):
        rec = by_id[jid]
        assert rec["state"] == "OK"
        # ok_run computes value*2 + seed; the result travelled the full
        # HTTP + journal + cache path byte-faithfully.
        assert rec["result"]["value"] == 2.0 * 2 + seed

    status = client.status(job_ids[0])
    assert status["state"] == "OK" and status["tenant"] == "alice"
    tenant_view = client.tenant_status("alice")
    assert len(tenant_view["jobs"]) == 3

    # Resubmitting the same batch is idempotent: same ids, no new work.
    again = client.submit("alice", batch)
    assert [j["job_id"] for j in again["accepted"]] == job_ids
    assert client.metrics()["states"] == {"OK": 3}


def test_unknown_routes_and_jobs(http_service):
    client = http_service().client()
    with pytest.raises(ServeError) as err:
        client.status("alice/nope-000000000000")
    assert err.value.status == 404
    with pytest.raises(ServeError) as err:
        client._request("GET", "/v1/bogus")
    assert err.value.status == 404
    with pytest.raises(ServeError) as err:
        client._request("POST", "/v1/submit", {"tenant": "a", "runs": []})
    assert err.value.status == 400


def test_backpressure_answers_429_with_retry_after(http_service, tmp_path):
    gate_dir = tmp_path / "gates"
    gate_dir.mkdir()
    harness = http_service(max_tenant_depth=2, max_total_depth=8)
    client = harness.client()
    # Park the single worker so submissions stay queued.
    gate_doc = client.submit("g", [gate_run(gate_dir, "g1")])
    with pytest.raises(ServeError) as err:
        client.submit("x", [ok_run(seed=s) for s in range(5)])
    assert err.value.status == 429
    assert err.value.retry_after is not None
    doc = err.value.body
    assert len(doc["accepted"]) == 2 and doc["rejected"] == 3
    # Un-park, let everything finish.
    (gate_dir / "g1").touch()
    accepted = [j["job_id"] for j in doc["accepted"]]
    accepted.append(gate_doc["accepted"][0]["job_id"])
    wait_all_ok(client, accepted)


def test_cancel_over_http(http_service, tmp_path):
    gate_dir = tmp_path / "gates"
    gate_dir.mkdir()
    client = http_service().client()
    running = client.submit("t", [gate_run(gate_dir, "g1")])
    queued = client.submit("t", [ok_run(seed=7)])
    queued_id = queued["accepted"][0]["job_id"]
    cancelled = client.cancel(queued_id)
    assert cancelled["state"] == "CANCELLED"
    # Cancelling a terminal job is a conflict, not a silent success.
    with pytest.raises(ServeError) as err:
        client.cancel(queued_id)
    assert err.value.status == 409
    (gate_dir / "g1").touch()
    wait_all_ok(client, [running["accepted"][0]["job_id"]])


def test_drain_over_http_rejects_new_work_with_503(http_service):
    client = http_service().client()
    doc = client.submit("t", [ok_run(seed=s) for s in range(3)])
    drained = client.drain(timeout=20.0)
    assert drained["drained"] and drained["pending"] == 0
    rejected = client.submit("t", [ok_run(seed=9)], ok=False)
    assert rejected["_status"] == 503
    # Work accepted before the drain all completed.
    ids = [j["job_id"] for j in doc["accepted"]]
    assert all(
        rec["state"] == "OK"
        for rec in client.results(jobs=ids, follow=False)
    )


def test_cross_tenant_cache_sharing_over_http(http_service, tmp_path):
    count_dir = tmp_path / "counts"
    client = http_service().client()
    first = client.submit("alice", [counted_run(count_dir, seed=1)])
    a_id = first["accepted"][0]["job_id"]
    wait_all_ok(client, [a_id])
    second = client.submit("bob", [counted_run(count_dir, seed=1)])
    b_id = second["accepted"][0]["job_id"]
    rec = wait_all_ok(client, [b_id])[b_id]
    assert rec["cache_hit"] and rec["executions"] == 0
    metrics = client.metrics()
    assert metrics["cache"]["hits"] == 1
    tenants = {t["tenant"]: t for t in metrics["tenants"]}
    assert tenants["bob"]["cache_hits"] == 1


def test_process_workers_do_not_wedge_open_streams(http_service):
    """Regression: the first dispatch forks the process pool while the
    follow stream's connection is already open, so the forked workers
    inherit a duplicate of that socket's fd (fork ignores
    non-inheritable flags).  The server must half-close (FIN) the
    stream explicitly — with a plain close() the client would never
    see EOF and block until its timeout."""
    client = http_service(worker_mode="process").client(timeout=30.0)
    doc = client.submit("t", [ok_run(seed=41)])
    job_ids = [job["job_id"] for job in doc["accepted"]]
    # Open the stream immediately: the pool fork races this connection.
    records = list(client.results(jobs=job_ids, follow=True, timeout=30.0))
    assert [rec["state"] for rec in records] == ["OK"]
    assert records[0]["executions"] == 1  # really ran in a subprocess


def test_adaptive_fair_share_shifts_slots_to_the_laggard(http_service):
    """The ISSUE's e2e scenario: three tenants over HTTP, the backlogged
    tenant's priority rises within three virtual epochs, and after the
    tenants swap demand the Adaptive balancer re-converges with the
    priorities swapped — every epoch advanced explicitly via /v1/tick,
    no sleeps anywhere."""
    client = http_service().client()
    # Distinct params per tenant so every job truly executes (identical
    # specs would be answered from the shared cache without dispatch).
    values = {"alice": 1.0, "bob": 2.0, "carol": 3.0}

    def submit_round(tenant, seed):
        doc = client.submit(
            tenant, [ok_run(seed=seed, value=values[tenant])]
        )
        wait_all_ok(client, [j["job_id"] for j in doc["accepted"]])

    # Epoch 1: everyone shows up (registers + demands once).
    for tenant in ("alice", "bob", "carol"):
        submit_round(tenant, seed=0)
    tick = client.tick()
    assert tick["epoch"] == 1
    assert tick["balancer"]["priorities"] == {
        "alice": 6, "bob": 6, "carol": 6
    }

    # Epochs 2-3: only alice keeps demanding; bob and carol idle out.
    for seed in (1, 2):
        submit_round("alice", seed=seed)
        tick = client.tick()
    assert tick["epoch"] == 3
    assert tick["balancer"]["priorities"] == {
        "alice": 6, "bob": 4, "carol": 4
    }
    assert tick["balancer"]["state"] == "frozen"

    # The reversal: bob becomes the laggard with a backlog, alice goes
    # idle.  One epoch later the balancer has thawed and swapped the
    # priorities — slots now flow to bob.
    submit_round("bob", seed=10)
    tick = client.tick()
    assert tick["epoch"] == 4
    assert tick["balancer"]["priorities"] == {
        "alice": 4, "bob": 6, "carol": 4
    }

    # And the new regime is itself stable.
    submit_round("bob", seed=11)
    tick = client.tick()
    assert tick["balancer"]["state"] == "frozen"
    assert tick["balancer"]["priorities"]["bob"] == 6

    metrics = client.metrics()
    assert metrics["epoch"] == 5
    assert metrics["balancer"]["behaviour_changes"] == 1
    tenants = {t["tenant"]: t for t in metrics["tenants"]}
    assert tenants["alice"]["dispatches"] == 3
    assert tenants["bob"]["dispatches"] == 3


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(
            {"experiment": "x", "runner": "subprocess:getoutput"},
            id="runner-and-unknown-experiment",
        ),
        pytest.param(
            {"experiment": "serve_stub_ok", "runner": "subprocess:getoutput"},
            id="runner-on-registered-experiment",
        ),
        pytest.param({"experiment": "x"}, id="unknown-experiment"),
    ],
)
def test_submit_rejects_runner_and_unknown_experiment(
    http_service, tmp_path, bad
):
    """Over HTTP a run names a registered experiment only: a client
    ``runner`` would make a worker import and call a function of the
    client's choosing.  The whole request is refused before anything
    is journaled, including the valid run ahead of the bad one."""
    marker = tmp_path / "executed"
    bad = dict(bad, params={"cmd": f"echo ran > {marker}"})
    client = http_service().client()
    with pytest.raises(ServeError) as err:
        client._request(
            "POST", "/v1/submit", {"tenant": "mallory", "runs": [bad]}
        )
    assert err.value.status == 400
    with pytest.raises(ServeError) as err:
        client.submit("mallory", [ok_run(seed=1), bad])
    assert err.value.status == 400
    assert client.metrics()["states"] == {}
    assert client.tenant_status("mallory")["jobs"] == []

    # A dispatch pass after the refusals still finds nothing to run.
    doc = client.submit("alice", [ok_run(seed=2)])
    wait_all_ok(client, [j["job_id"] for j in doc["accepted"]])
    assert client.metrics()["states"] == {"OK": 1}
    assert not marker.exists()
