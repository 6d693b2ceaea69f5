"""The durable job queue: journaling, transitions, crash recovery."""

import pytest

from repro.campaign.spec import RunSpec
from repro.serve import (
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_OK,
    JOB_QUEUED,
    JOB_RUNNING,
    JobQueue,
    job_id_for,
)

from tests.serve.conftest import make_job


@pytest.fixture
def queue(tmp_path):
    q = JobQueue(tmp_path / "jobs.db")
    yield q
    q.close()


class TestSubmission:
    def test_submit_journals_and_assigns_seq(self, queue):
        job, created = queue.submit(make_job(seed=1))
        assert created and job.seq > 0
        assert queue.get(job.job_id).state == JOB_QUEUED

    def test_resubmit_is_idempotent(self, queue):
        first, created1 = queue.submit(make_job(seed=1))
        again, created2 = queue.submit(make_job(seed=1))
        assert created1 and not created2
        assert again.job_id == first.job_id
        assert queue.depth() == 1

    def test_tag_makes_a_deliberate_duplicate(self, queue):
        queue.submit(make_job(seed=1))
        _, created = queue.submit(make_job(seed=1, tag="rerun"))
        assert created
        assert queue.depth() == 2

    def test_job_id_scoped_by_tenant(self):
        spec = RunSpec(experiment="stub", params={}, seed=0)
        assert job_id_for("a", spec) != job_id_for("b", spec)


class TestTransitions:
    def test_claim_bumps_attempt_and_execution_ledger(self, queue):
        job, _ = queue.submit(make_job())
        claimed = queue.claim(job.job_id, epoch=3)
        assert claimed.state == JOB_RUNNING
        assert claimed.attempt == 1
        assert claimed.executions == 1
        assert claimed.started_epoch == 3

    def test_claim_refuses_non_queued(self, queue):
        job, _ = queue.submit(make_job())
        queue.claim(job.job_id, epoch=0)
        assert queue.claim(job.job_id, epoch=0) is None  # already running
        queue.cancel(job.job_id, epoch=0)
        assert queue.claim(job.job_id, epoch=0) is None  # terminal

    def test_complete_stores_result(self, queue):
        job, _ = queue.submit(make_job())
        queue.claim(job.job_id, epoch=0)
        done = queue.complete(job.job_id, b'{"x": 1}', epoch=2)
        assert done.state == JOB_OK
        assert done.result == b'{"x": 1}'
        assert done.finished_epoch == 2

    def test_cache_hit_completes_straight_from_queued(self, queue):
        job, _ = queue.submit(make_job())
        done = queue.complete(job.job_id, b"{}", epoch=0, cache_hit=True)
        assert done.state == JOB_OK
        assert done.cache_hit
        assert done.executions == 0  # never claimed, never executed

    def test_late_result_never_overwrites_cancel(self, queue):
        """Cancel-mid-run: the journal turns terminal immediately; the
        in-flight worker result is discarded when it lands."""
        job, _ = queue.submit(make_job())
        queue.claim(job.job_id, epoch=0)
        assert queue.cancel(job.job_id, epoch=1).state == JOB_CANCELLED
        assert queue.complete(job.job_id, b"{}", epoch=1) is None
        final = queue.get(job.job_id)
        assert final.state == JOB_CANCELLED
        assert final.result is None

    def test_requeue_keeps_error_and_attempt(self, queue):
        job, _ = queue.submit(make_job())
        queue.claim(job.job_id, epoch=0)
        back = queue.requeue(job.job_id, "boom")
        assert back.state == JOB_QUEUED
        assert back.error == "boom"
        assert back.attempt == 1  # burned attempt survives the requeue

    def test_fail_is_terminal(self, queue):
        job, _ = queue.submit(make_job())
        queue.claim(job.job_id, epoch=0)
        assert queue.fail(job.job_id, "boom", epoch=4).state == JOB_FAILED
        assert queue.cancel(job.job_id, epoch=4) is None


class TestTransaction:
    def test_block_commits_once_on_exit(self, queue, tmp_path):
        observer = JobQueue(tmp_path / "jobs.db")  # a second connection
        try:
            with queue.transaction():
                job, _ = queue.submit(make_job(seed=1))
                queue.claim(job.job_id, epoch=0)
                assert queue.get(job.job_id).state == JOB_RUNNING
                assert observer.get(job.job_id) is None  # not yet committed
            assert observer.get(job.job_id).state == JOB_RUNNING
        finally:
            observer.close()

    def test_block_rolls_back_when_it_raises(self, queue):
        kept, _ = queue.submit(make_job(seed=1))
        with pytest.raises(RuntimeError):
            with queue.transaction():
                queue.submit(make_job(seed=2))
                queue.claim(kept.job_id, epoch=0)
                raise RuntimeError("boom")
        assert [j.job_id for j in queue.all_jobs()] == [kept.job_id]
        assert queue.get(kept.job_id).state == JOB_QUEUED

    def test_nested_block_joins_the_outer_one(self, queue, tmp_path):
        observer = JobQueue(tmp_path / "jobs.db")
        try:
            with queue.transaction():
                with queue.transaction():
                    job, _ = queue.submit(make_job(seed=1))
                assert observer.get(job.job_id) is None
            assert observer.get(job.job_id).state == JOB_QUEUED
        finally:
            observer.close()


class TestCrashRecovery:
    def test_running_jobs_requeued_on_reopen(self, queue, tmp_path):
        done_job, _ = queue.submit(make_job(seed=1))
        queue.claim(done_job.job_id, epoch=0)
        queue.complete(done_job.job_id, b'{"done": 1}', epoch=0)
        crashed, _ = queue.submit(make_job(seed=2))
        queue.claim(crashed.job_id, epoch=0)
        waiting, _ = queue.submit(make_job(seed=3))
        queue.close()  # kill -9: nothing else written

        reopened = JobQueue(tmp_path / "jobs.db")
        try:
            recovered = reopened.recover()
            assert [j.job_id for j in recovered] == [crashed.job_id]
            row = reopened.get(crashed.job_id)
            assert row.state == JOB_QUEUED
            assert row.recovered
            assert row.attempt == 1  # the crash was not the run's fault
            # Terminal and queued rows come back untouched.
            assert reopened.get(done_job.job_id).result == b'{"done": 1}'
            assert not reopened.get(done_job.job_id).recovered
            assert reopened.get(waiting.job_id).state == JOB_QUEUED
        finally:
            reopened.close()

    def test_recover_on_clean_journal_is_a_noop(self, queue):
        job, _ = queue.submit(make_job())
        assert queue.recover() == []
        assert queue.get(job.job_id).state == JOB_QUEUED


class TestQueries:
    def test_depth_counts_only_queued(self, queue):
        a, _ = queue.submit(make_job(seed=1))
        b, _ = queue.submit(make_job(seed=2))
        queue.submit(make_job(tenant="other", seed=1))
        queue.claim(a.job_id, epoch=0)
        assert queue.depth() == 2
        assert queue.depth("t") == 1
        assert queue.depth("other") == 1

    def test_heads_are_oldest_queued_per_tenant(self, queue):
        a = [queue.submit(make_job(tenant="a", seed=i))[0] for i in range(3)]
        b = [queue.submit(make_job(tenant="b", seed=i))[0] for i in range(2)]
        assert [j.job_id for j in queue.heads()] == [a[0].job_id, b[0].job_id]
        queue.claim(a[0].job_id, epoch=0)
        queue.cancel(b[0].job_id, epoch=0)
        assert [j.job_id for j in queue.heads()] == [a[1].job_id, b[1].job_id]
        queue.requeue(a[0].job_id, "lost")
        assert [j.job_id for j in queue.heads()] == [a[0].job_id, b[1].job_id]
        queue.cancel(b[1].job_id, epoch=0)
        assert [j.job_id for j in queue.heads()] == [a[0].job_id]

    def test_counts_and_pending(self, queue):
        a, _ = queue.submit(make_job(seed=1))
        b, _ = queue.submit(make_job(seed=2))
        queue.claim(a.job_id, epoch=0)
        assert queue.counts() == {JOB_QUEUED: 1, JOB_RUNNING: 1}
        assert queue.pending() == 2
        queue.complete(a.job_id, b"{}", epoch=0)
        queue.cancel(b.job_id, epoch=0)
        assert queue.pending() == 0

    def test_tenants_listing(self, queue):
        queue.submit(make_job(tenant="zeta"))
        queue.submit(make_job(tenant="alpha"))
        assert queue.tenants() == ["alpha", "zeta"]
