"""The dispatcher's cost per job does not grow with the backlog.

A batch of N cache-hit jobs drains in one dispatch pass.  The SQL
statements the journal executes and the job specs it JSON-decodes are
counted for N = 13, 26 and 52: both totals must be affine in N (the
same marginal cost per job at every size), one commit covers the whole
pass, and one more covers the whole submit request.  A dispatcher
that re-read the backlog to place each job would decode O(N) specs
per job instead.
"""

import asyncio

import pytest

import repro.serve.queue as queue_mod
from repro.campaign.spec import RunSpec
from repro.serve import CampaignService, JOB_OK

from tests.serve.conftest import serve_config

SIZES = (13, 26, 52)


def cached_specs(svc, tenant, n):
    """``n`` distinct specs whose results are already in the cache."""
    specs = []
    for seed in range(n):
        spec = RunSpec(
            experiment="stub", params={"tenant": tenant}, seed=seed
        )
        svc.cache.put(svc.cache.key_for(spec), b'{"cached": true}')
        specs.append((spec, ""))
    return specs


def drain_cost(root, monkeypatch, batches):
    """Submit ``{tenant: n}`` cache-hit jobs, then run one dispatch
    pass that drains them all; returns what each step cost."""
    decodes = []
    decode = queue_mod._job_from_row

    def counted(row):
        decodes.append(row["job_id"])
        return decode(row)

    async def scenario():
        # Not started: no dispatcher task, so the pass runs only here.
        svc = CampaignService(serve_config(root, workers=1))
        try:
            specs = {t: cached_specs(svc, t, n) for t, n in batches.items()}
            submit_sql = []
            svc.queue._db.set_trace_callback(submit_sql.append)
            for tenant, batch in specs.items():
                accepted, rejection = svc.submit(tenant, batch)
                assert rejection is None and len(accepted) == len(batch)
            pass_sql = []
            svc.queue._db.set_trace_callback(pass_sql.append)
            monkeypatch.setattr(queue_mod, "_job_from_row", counted)
            svc._fill_slots()
            monkeypatch.setattr(queue_mod, "_job_from_row", decode)
            svc.queue._db.set_trace_callback(None)
            jobs = svc.queue.all_jobs()
            assert {j.state for j in jobs} == {JOB_OK}
            assert all(j.cache_hit and j.executions == 0 for j in jobs)
        finally:
            await svc.stop()
        return {
            "submit statements": len(submit_sql),
            "submit commits": commits(submit_sql),
            "pass statements": len(pass_sql),
            "pass commits": commits(pass_sql),
            "spec decodes": len(decodes),
        }

    return asyncio.run(scenario())


def commits(statements):
    return sum(1 for s in statements if s.strip().upper() == "COMMIT")


def test_cache_hit_drain_cost_per_job_is_flat(tmp_path, monkeypatch):
    cost = {
        n: drain_cost(tmp_path / f"svc{n}", monkeypatch, {"t": n})
        for n in SIZES
    }
    for n in SIZES:
        assert cost[n]["submit commits"] == 1, f"N={n}"
        assert cost[n]["pass commits"] == 1, f"N={n}"

    def per_job(what, lo, hi):
        return (cost[hi][what] - cost[lo][what]) / (hi - lo)

    for what in ("submit statements", "pass statements", "spec decodes"):
        small, large = per_job(what, 13, 26), per_job(what, 26, 52)
        assert small == large, f"{what} per job grew: {small} -> {large}"
    assert per_job("submit statements", 26, 52) == 1  # the insert
    # Head query, completion, completion read-back.
    assert per_job("pass statements", 26, 52) == 3
    # The head decode and the read-back decode.
    assert per_job("spec decodes", 26, 52) == 2


@pytest.mark.parametrize("tenants", [2, 4])
def test_slot_fill_decodes_at_most_one_spec_per_queued_tenant(
    tmp_path, monkeypatch, tenants
):
    per_tenant = 13
    batches = {f"t{i}": per_tenant for i in range(tenants)}
    cost = drain_cost(tmp_path / "svc", monkeypatch, batches)
    jobs = tenants * per_tenant
    # Each dispatch decodes one head per tenant with queued work plus
    # the completed job's read-back; with several tenants queued, the
    # heads really do hold more than one job.
    assert jobs * 2 < cost["spec decodes"] <= jobs * (tenants + 1)
