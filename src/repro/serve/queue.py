"""Durable priority job queue: a SQLite/WAL journal.

Every job the service accepts is journaled **before** it is
acknowledged, every state transition is journaled as it happens, and
the journal is the single source of truth on restart:

* ``OK``/``FAILED``/``CANCELLED`` rows are final — a restart serves
  their results straight from the journal, never re-executing them;
* ``RUNNING`` rows mean the process died mid-execution — recovery
  re-queues them (``recovered=1``, attempt preserved).  Their first
  dispatch goes through the content-addressed cache, so work that
  finished (and was cached) between the last journal write and the
  crash is still not executed twice;
* ``QUEUED`` rows simply wait for the dispatcher again.

A write outside :meth:`JobQueue.transaction` commits at once; writes
inside one block share one commit.  The service opens one block per
submit request and one per dispatch pass, so a request's jobs land
together (or, after a kill -9 mid-request, not at all).

WAL mode keeps readers (status/metrics queries) from blocking the
writer, and a crash can lose at most the tail of the WAL — never
corrupt the journal (SQLite's guarantee).  All access happens on the
service's event-loop thread; the queue is not a cross-thread object.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.serve.state import (
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_OK,
    JOB_QUEUED,
    JOB_RUNNING,
    TERMINAL_STATES,
    Job,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id          TEXT PRIMARY KEY,
    tenant          TEXT NOT NULL,
    spec            TEXT NOT NULL,
    cache_key       TEXT NOT NULL DEFAULT '',
    state           TEXT NOT NULL,
    attempt         INTEGER NOT NULL DEFAULT 0,
    executions      INTEGER NOT NULL DEFAULT 0,
    submitted_epoch INTEGER NOT NULL DEFAULT 0,
    started_epoch   INTEGER,
    finished_epoch  INTEGER,
    error           TEXT,
    result          BLOB,
    cache_hit       INTEGER NOT NULL DEFAULT 0,
    recovered       INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_by_tenant_state ON jobs (tenant, state);
CREATE INDEX IF NOT EXISTS jobs_by_state_tenant ON jobs (state, tenant);
"""

#: The oldest QUEUED job of every tenant, in one statement.  The
#: recursive part skip-scans ``jobs_by_state_tenant``: each step seeks
#: the first QUEUED entry of the next tenant name (entries sort by
#: ``(state, tenant, rowid)``, so that entry is the tenant's oldest
#: job), which costs O(tenants · log jobs) however deep the backlog.
_HEADS = """
WITH RECURSIVE head(tenant, rid) AS (
    SELECT tenant, rowid FROM jobs WHERE rowid = (
        SELECT rowid FROM jobs WHERE state = :state
        ORDER BY tenant, rowid LIMIT 1)
    UNION ALL
    SELECT jobs.tenant, jobs.rowid FROM head, jobs WHERE jobs.rowid = (
        SELECT rowid FROM jobs WHERE state = :state AND tenant > head.tenant
        ORDER BY tenant, rowid LIMIT 1)
)
SELECT rowid, * FROM jobs WHERE rowid IN (SELECT rid FROM head)
ORDER BY rowid
"""


class JobQueue:
    """The journaled job table plus typed accessors over it."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(str(self.path))
        self._db.row_factory = sqlite3.Row
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        self._db.commit()
        #: Open :meth:`transaction` blocks; writes commit at depth 0.
        self._batch = 0

    # -- lifecycle -----------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Journal every write inside the block in one commit.

        The outermost block commits on exit, or rolls back if the block
        raises; a nested block joins the outer one.  A block must not
        span an ``await``: opened and closed inside one synchronous
        step, no other coroutine can see or join a half-written batch.
        """
        self._batch += 1
        try:
            yield
        except BaseException:
            self._batch -= 1
            if not self._batch:
                self._db.rollback()
            raise
        self._batch -= 1
        self._commit()

    def _commit(self) -> None:
        if not self._batch:
            self._db.commit()

    def close(self) -> None:
        """Checkpoint and close the journal (idempotent)."""
        if self._db is None:
            return
        self._db.commit()
        self._db.close()
        self._db = None

    def recover(self) -> List[Job]:
        """Crash recovery: re-queue every job left ``RUNNING``.

        Returns the re-queued jobs.  Attempts are preserved (the death
        was the service's fault, not the run's), and ``recovered`` is
        set so operators and tests can see the crash in the record.
        """
        rows = self._db.execute(
            "SELECT job_id FROM jobs WHERE state = ?", (JOB_RUNNING,)
        ).fetchall()
        ids = [r["job_id"] for r in rows]
        self._db.executemany(
            "UPDATE jobs SET state = ?, recovered = 1 WHERE job_id = ?",
            [(JOB_QUEUED, jid) for jid in ids],
        )
        self._commit()
        return [job for jid in ids if (job := self.get(jid)) is not None]

    # -- submission ----------------------------------------------------

    def submit(self, job: Job) -> tuple:
        """Journal a new job; returns ``(job, created)``.

        Submitting an existing ``job_id`` is idempotent: the journaled
        job is returned with ``created=False`` and nothing is written.
        """
        cur = self._db.execute(
            "INSERT INTO jobs (job_id, tenant, spec, cache_key, state,"
            " attempt, submitted_epoch) VALUES (?, ?, ?, ?, ?, ?, ?)"
            " ON CONFLICT (job_id) DO NOTHING",
            (
                job.job_id,
                job.tenant,
                _spec_json(job.spec),
                job.cache_key,
                JOB_QUEUED,
                job.attempt,
                job.submitted_epoch,
            ),
        )
        self._commit()
        if cur.rowcount != 1:
            return self.get(job.job_id), False
        job.seq = cur.lastrowid or 0
        job.state = JOB_QUEUED
        return job, True

    # -- transitions ---------------------------------------------------

    def claim(self, job_id: str, epoch: int) -> Optional[Job]:
        """QUEUED -> RUNNING; bumps the execution ledger.

        Returns the claimed job, or ``None`` when the job is no longer
        claimable (cancelled/completed in the meantime).
        """
        cur = self._db.execute(
            "UPDATE jobs SET state = ?, started_epoch = ?, "
            "attempt = attempt + 1, executions = executions + 1 "
            "WHERE job_id = ? AND state = ?",
            (JOB_RUNNING, epoch, job_id, JOB_QUEUED),
        )
        self._commit()
        if cur.rowcount != 1:
            return None
        return self.get(job_id)

    def complete(
        self,
        job_id: str,
        result: bytes,
        epoch: int,
        cache_hit: bool = False,
    ) -> Optional[Job]:
        """-> OK with the canonical result payload.

        Terminal states are never overwritten (a result arriving after
        a cancel is discarded by the state guard).  Cache hits complete
        straight from QUEUED without ever being claimed.
        """
        cur = self._db.execute(
            "UPDATE jobs SET state = ?, result = ?, finished_epoch = ?, "
            "cache_hit = ?, error = NULL "
            "WHERE job_id = ? AND state IN (?, ?)",
            (
                JOB_OK,
                result,
                epoch,
                1 if cache_hit else 0,
                job_id,
                JOB_QUEUED,
                JOB_RUNNING,
            ),
        )
        self._commit()
        return self.get(job_id) if cur.rowcount == 1 else None

    def requeue(self, job_id: str, error: str) -> Optional[Job]:
        """RUNNING -> QUEUED after a retryable failure."""
        cur = self._db.execute(
            "UPDATE jobs SET state = ?, error = ? "
            "WHERE job_id = ? AND state = ?",
            (JOB_QUEUED, error, job_id, JOB_RUNNING),
        )
        self._commit()
        return self.get(job_id) if cur.rowcount == 1 else None

    def fail(self, job_id: str, error: str, epoch: int) -> Optional[Job]:
        """-> FAILED (terminal), recording the last error."""
        cur = self._db.execute(
            "UPDATE jobs SET state = ?, error = ?, finished_epoch = ? "
            "WHERE job_id = ? AND state IN (?, ?)",
            (JOB_FAILED, error, epoch, job_id, JOB_QUEUED, JOB_RUNNING),
        )
        self._commit()
        return self.get(job_id) if cur.rowcount == 1 else None

    def cancel(self, job_id: str, epoch: int) -> Optional[Job]:
        """-> CANCELLED, from QUEUED or RUNNING.

        Cancelling a running job takes effect immediately in the
        journal; the in-flight worker result is discarded when it
        lands (the ``complete`` state guard rejects it).
        """
        cur = self._db.execute(
            "UPDATE jobs SET state = ?, finished_epoch = ? "
            "WHERE job_id = ? AND state IN (?, ?)",
            (JOB_CANCELLED, epoch, job_id, JOB_QUEUED, JOB_RUNNING),
        )
        self._commit()
        return self.get(job_id) if cur.rowcount == 1 else None

    # -- queries -------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        """The journaled job, or ``None``."""
        row = self._db.execute(
            "SELECT rowid, * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        return _job_from_row(row) if row is not None else None

    def heads(self) -> List[Job]:
        """The oldest QUEUED job of each tenant, in submission order.

        One row per tenant with queued work, whatever the backlog, so
        a dispatch decision decodes at most that many specs.
        """
        rows = self._db.execute(_HEADS, {"state": JOB_QUEUED}).fetchall()
        return [_job_from_row(r) for r in rows]

    def jobs_for(self, tenant: str) -> List[Job]:
        """Every journaled job of one tenant, in submission order."""
        rows = self._db.execute(
            "SELECT rowid, * FROM jobs WHERE tenant = ? ORDER BY rowid",
            (tenant,),
        ).fetchall()
        return [_job_from_row(r) for r in rows]

    def all_jobs(self) -> List[Job]:
        """Every journaled job, in submission order."""
        rows = self._db.execute(
            "SELECT rowid, * FROM jobs ORDER BY rowid"
        ).fetchall()
        return [_job_from_row(r) for r in rows]

    def depth(self, tenant: Optional[str] = None) -> int:
        """Queued-job count (per tenant, or total)."""
        if tenant is None:
            row = self._db.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE state = ?",
                (JOB_QUEUED,),
            ).fetchone()
        else:
            row = self._db.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE state = ? AND tenant = ?",
                (JOB_QUEUED, tenant),
            ).fetchone()
        return int(row["n"])

    def counts(self) -> Dict[str, int]:
        """Job count per state (absent states omitted)."""
        rows = self._db.execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ).fetchall()
        return {r["state"]: int(r["n"]) for r in rows}

    def pending(self) -> int:
        """Jobs not yet terminal (QUEUED + RUNNING)."""
        row = self._db.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state IN (?, ?)",
            (JOB_QUEUED, JOB_RUNNING),
        ).fetchone()
        return int(row["n"])

    def tenants(self) -> List[str]:
        """Every tenant name appearing in the journal."""
        rows = self._db.execute(
            "SELECT DISTINCT tenant FROM jobs ORDER BY tenant"
        ).fetchall()
        return [r["tenant"] for r in rows]


def _spec_json(spec: Dict) -> str:
    return json.dumps(spec, sort_keys=True)


def _job_from_row(row: sqlite3.Row) -> Job:
    return Job(
        job_id=row["job_id"],
        tenant=row["tenant"],
        spec=json.loads(row["spec"]),
        cache_key=row["cache_key"],
        state=row["state"],
        attempt=row["attempt"],
        executions=row["executions"],
        submitted_epoch=row["submitted_epoch"],
        started_epoch=row["started_epoch"],
        finished_epoch=row["finished_epoch"],
        error=row["error"],
        result=row["result"],
        cache_hit=bool(row["cache_hit"]),
        seq=row["rowid"],
        recovered=bool(row["recovered"]),
    )
