"""Durable store of async grid runs (SQLite WAL).

Async ``/v1/grid`` runs outlive the daemon that accepted them: if run
state lived only in daemon memory, a restart would answer every
``/v1/runs/{id}`` poll with a 404 and leave hours of grid work
unreferenceable (the results would still sit in the content-addressed
cache, but nothing would map the run id back to them).
:class:`RunStore` persists each run's lifecycle — submitted payload,
status transitions, and terminal manifest/failures/records — so a
restarted daemon keeps answering polls for runs it no longer remembers.

The store is deliberately dumb: JSON blobs keyed by run id, written at
the few lifecycle transitions (submit → running → done/failed), read on
poll misses.  It knows nothing of API types — the server owns
encode/decode — which keeps the runtime layer below the api layer.

A run that was ``pending``/``running`` when the daemon died can never
finish (its worker thread died with the process); on boot the server
calls :meth:`mark_interrupted` so pollers see a terminal, truthful
``"interrupted"`` state instead of a forever-``running`` lie.

``path=None`` keeps the store in memory (one shared connection) — same
code path, no files, for tests and throwaway servers.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id     TEXT PRIMARY KEY,
    status     TEXT NOT NULL,
    cells      INTEGER NOT NULL DEFAULT 0,
    request    TEXT,
    manifest   TEXT,
    failures   TEXT NOT NULL DEFAULT '[]',
    records    TEXT NOT NULL DEFAULT '[]',
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
"""


@dataclass
class StoredRun:
    """One persisted grid run, JSON blobs already decoded."""

    run_id: str
    status: str
    cells: int
    #: encoded (tagged-payload) GridRequest, or None
    request: dict | None = None
    manifest: dict | None = None
    #: encoded ErrorEnvelope payloads
    failures: list[dict] = field(default_factory=list)
    #: encoded ForecastResponse payloads
    records: list[dict] = field(default_factory=list)
    created_at: float = 0.0
    updated_at: float = 0.0


class RunStore:
    """SQLite-WAL store mapping run ids to run state across restarts."""

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._conns: dict[int, sqlite3.Connection] = {}
        if path is not None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
        with self._lock:
            self._conn().executescript(_SCHEMA)

    def _conn(self) -> sqlite3.Connection:
        # per-process connections for file stores (handles don't survive
        # fork); a memory store has exactly one connection — its data IS
        # the connection
        pid = os.getpid() if self.path is not None else 0
        conn = self._conns.get(pid)
        if conn is None:
            conn = sqlite3.connect(self.path or ":memory:",
                                   check_same_thread=False, timeout=30.0)
            if self.path is not None:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            self._conns[pid] = conn
        return conn

    # -- writes ----------------------------------------------------------------

    def create(self, run_id: str, cells: int, request: dict | None = None,
               status: str = "pending") -> None:
        now = time.time()
        with self._lock, self._conn() as conn:
            conn.execute(
                """INSERT OR REPLACE INTO runs
                   (run_id, status, cells, request, created_at, updated_at)
                   VALUES (?, ?, ?, ?, ?, ?)""",
                (run_id, status, cells,
                 json.dumps(request) if request is not None else None,
                 now, now))

    def set_status(self, run_id: str, status: str) -> None:
        with self._lock, self._conn() as conn:
            conn.execute(
                "UPDATE runs SET status = ?, updated_at = ? WHERE run_id = ?",
                (status, time.time(), run_id))

    def finish(self, run_id: str, status: str, manifest: dict | None = None,
               failures: list[dict] = (), records: list[dict] = ()) -> None:
        """Record a terminal state with its result payloads."""
        with self._lock, self._conn() as conn:
            conn.execute(
                """UPDATE runs SET status = ?, manifest = ?, failures = ?,
                       records = ?, updated_at = ?
                   WHERE run_id = ?""",
                (status,
                 json.dumps(manifest) if manifest is not None else None,
                 json.dumps(list(failures)), json.dumps(list(records)),
                 time.time(), run_id))

    def mark_interrupted(self) -> list[str]:
        """Flip non-terminal runs to ``interrupted``; returns their ids.

        Called once at daemon boot: a pending/running row belongs to a
        previous process whose worker threads no longer exist.
        """
        with self._lock, self._conn() as conn:
            rows = conn.execute(
                """SELECT run_id FROM runs
                   WHERE status IN ('pending', 'running')""").fetchall()
            ids = [run_id for (run_id,) in rows]
            if ids:
                conn.executemany(
                    """UPDATE runs SET status = 'interrupted', updated_at = ?
                       WHERE run_id = ?""",
                    [(time.time(), run_id) for run_id in ids])
        return ids

    # -- reads -----------------------------------------------------------------

    def get(self, run_id: str) -> StoredRun | None:
        with self._lock:
            row = self._conn().execute(
                """SELECT run_id, status, cells, request, manifest, failures,
                          records, created_at, updated_at
                   FROM runs WHERE run_id = ?""", (run_id,)).fetchone()
        if row is None:
            return None
        (run_id, status, cells, request, manifest, failures, records,
         created_at, updated_at) = row
        return StoredRun(
            run_id=run_id, status=status, cells=cells,
            request=json.loads(request) if request else None,
            manifest=json.loads(manifest) if manifest else None,
            failures=json.loads(failures or "[]"),
            records=json.loads(records or "[]"),
            created_at=created_at, updated_at=updated_at)

    def run_ids(self) -> list[str]:
        with self._lock:
            rows = self._conn().execute(
                "SELECT run_id FROM runs ORDER BY created_at").fetchall()
        return [run_id for (run_id,) in rows]

    def count(self) -> int:
        with self._lock:
            (count,) = self._conn().execute(
                "SELECT COUNT(*) FROM runs").fetchone()
        return count

    def close(self) -> None:
        with self._lock:
            for conn in self._conns.values():
                conn.close()
            self._conns.clear()

    # -- shared state type -----------------------------------------------------

    #: every state a stored run can be in (superset of the API's live set)
    STATES: "tuple[str, ...]" = ("pending", "running", "done", "failed",
                                 "interrupted")
