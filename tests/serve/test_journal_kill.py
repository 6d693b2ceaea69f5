"""Kill -9 against the journal: a forked child drives a ``JobQueue``,
reports over a pipe that it reached the kill point, and is SIGKILLed
there.  Reopening the journal must show exactly the committed
transactions: an open submit batch leaves no row, a committed one
leaves every row QUEUED, and RUNNING claims come back through
``recover()`` at the head of their tenant's queue."""

import os
import select
import signal
import traceback

import pytest

from repro.serve import JOB_QUEUED, JobQueue

from tests.serve.conftest import make_job

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs os.fork"
)


def kill_at_ready(path, drive) -> None:
    """Fork a child that opens the journal at ``path`` and runs
    ``drive(queue, ready)``; SIGKILL it inside ``ready()`` and reap it.

    ``ready()`` writes one byte to the parent, then blocks reading a
    pipe the parent never writes, so the kill lands at that exact
    point of ``drive``.
    """
    ready_r, ready_w = os.pipe()
    hold_r, hold_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the test runner
        code = 1
        try:
            os.close(ready_r)
            os.close(hold_w)
            queue = JobQueue(path)

            def ready() -> None:
                os.write(ready_w, b"k")
                os.read(hold_r, 1)

            drive(queue, ready)
            code = 2  # ready() returned: the parent went away
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(ready_w)
    os.close(hold_r)
    try:
        readable, _, _ = select.select([ready_r], [], [], 30.0)
        reached = os.read(ready_r, 1) if readable else b""
    finally:
        os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        os.close(ready_r)
        os.close(hold_w)
    assert reached == b"k", "child failed before the kill point"
    assert os.WIFSIGNALED(status)
    assert os.WTERMSIG(status) == signal.SIGKILL


@pytest.fixture
def path(tmp_path):
    return tmp_path / "jobs.db"


def reopen(path):
    queue = JobQueue(path)
    try:
        return queue.recover(), queue.all_jobs(), queue.heads()
    finally:
        queue.close()


def test_kill_inside_open_submit_transaction_leaves_no_row(path):
    committed = make_job(seed=0)
    batch = [make_job(seed=s) for s in range(1, 6)]

    def drive(queue, ready):
        queue.submit(committed)
        with queue.transaction():
            for job in batch:
                queue.submit(job)
            ready()

    kill_at_ready(path, drive)
    recovered, jobs, _ = reopen(path)
    assert recovered == []
    assert [j.job_id for j in jobs] == [committed.job_id]


def test_kill_after_committed_submit_keeps_every_row_queued(path):
    batch = [make_job(seed=s) for s in range(5)]

    def drive(queue, ready):
        with queue.transaction():
            for job in batch:
                queue.submit(job)
        ready()

    kill_at_ready(path, drive)
    recovered, jobs, heads = reopen(path)
    assert recovered == []
    assert [j.job_id for j in jobs] == [j.job_id for j in batch]
    assert {j.state for j in jobs} == {JOB_QUEUED}
    assert [j.job_id for j in heads] == [batch[0].job_id]


def test_kill_with_claimed_jobs_recovers_them_at_the_head(path):
    t_jobs = [make_job(tenant="t", seed=s) for s in range(4)]
    u_jobs = [make_job(tenant="u", seed=s) for s in range(2)]

    def drive(queue, ready):
        with queue.transaction():
            for job in t_jobs + u_jobs:
                queue.submit(job)
        with queue.transaction():  # one dispatch pass: two claims
            queue.claim(t_jobs[0].job_id, epoch=1)
            queue.claim(t_jobs[1].job_id, epoch=1)
        ready()

    kill_at_ready(path, drive)
    recovered, jobs, heads = reopen(path)
    assert [j.job_id for j in recovered] == [
        t_jobs[0].job_id,
        t_jobs[1].job_id,
    ]
    assert all(j.recovered and j.attempt == 1 for j in recovered)
    assert {j.state for j in jobs} == {JOB_QUEUED}
    # The recovered job keeps its place: ahead of t's younger jobs.
    assert [j.job_id for j in heads] == [t_jobs[0].job_id, u_jobs[0].job_id]
