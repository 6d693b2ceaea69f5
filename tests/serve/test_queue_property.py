"""Property: ``JobQueue.heads()`` is always the first QUEUED job of
each tenant in the journal's rowid order, whatever sequence of
submits, claims, completions, requeues, failures, cancels and crash
recoveries led there."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import JOB_QUEUED, JobQueue

from tests.serve.conftest import make_job

#: Names whose byte order differs from their case-folded order and
#: where one is a prefix of another: the skip-scan steps by ``>``.
TENANTS = ("alice", "Bob", "al", "\u00e9")

#: ``(op, tenant index, pick)``: submits use ``pick`` as the seed (so
#: repeats are idempotent resubmits); transitions apply to the
#: ``pick``-th journaled job, whatever its state (the state guards
#: turn most of them into no-ops, which is part of the property).
#: Half the operations are submits, so tenants build real backlogs.
_SUBMIT = st.tuples(
    st.just("submit"),
    st.integers(0, len(TENANTS) - 1),
    st.integers(0, 7),
)
_TRANSITION = st.tuples(
    st.sampled_from(
        ["claim", "complete", "requeue", "fail", "cancel", "recover"]
    ),
    st.just(0),
    st.integers(0, 15),
)
_OPS = st.lists(st.one_of(_SUBMIT, _TRANSITION), min_size=1, max_size=40)


def reference_heads(queue: JobQueue):
    """First QUEUED row per tenant, scanning all rows in rowid order."""
    first = {}
    for job in queue.all_jobs():
        if job.state == JOB_QUEUED:
            first.setdefault(job.tenant, job.job_id)
    return list(first.values())  # first-seen order is rowid order


def apply(queue: JobQueue, op: str, tenant: int, pick: int) -> None:
    if op == "submit":
        queue.submit(make_job(tenant=TENANTS[tenant], seed=pick))
        return
    if op == "recover":
        queue.recover()
        return
    jobs = queue.all_jobs()
    if not jobs:
        return
    job_id = jobs[pick % len(jobs)].job_id
    if op == "claim":
        queue.claim(job_id, epoch=0)
    elif op == "complete":
        queue.complete(job_id, b"{}", epoch=0)
    elif op == "requeue":
        queue.requeue(job_id, "lost")
    elif op == "fail":
        queue.fail(job_id, "boom", epoch=0)
    else:
        queue.cancel(job_id, epoch=0)


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_heads_match_first_queued_row_per_tenant(ops):
    with tempfile.TemporaryDirectory() as tmp:
        queue = JobQueue(Path(tmp) / "jobs.db")
        try:
            for op, tenant, pick in ops:
                apply(queue, op, tenant, pick)
                heads = queue.heads()
                assert [j.job_id for j in heads] == reference_heads(queue)
                assert all(j.state == JOB_QUEUED for j in heads)
        finally:
            queue.close()
