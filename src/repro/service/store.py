"""The durable verdict store: the one persistent record of results.

The LRU result cache dies with its process; the motivating fleet
deployment restarts workers routinely (crashes, rolling restarts,
breaker-driven kills), and every restart would otherwise re-pay every
hard-side search the worker had already answered.  :class:`SqliteStore`
is the durable tier *under* the LRU: results keyed by the same
canonical request fingerprints
(:mod:`repro.service.fingerprint`), stored in one sqlite file that any
number of worker processes share.  It is also how an interrupted
``serve-batch --store`` run resumes: re-running the batch over the same
file serves every stored verdict without recomputation.

Durability discipline:

* **Synced before acknowledged** — the store runs in WAL mode with
  ``synchronous=FULL``, so the WAL is fsync-ed at every commit: a
  ``put`` that returns True survives a process kill *and* a power
  loss.  Readers never block the single writer, concurrent worker
  processes interleave through sqlite's own locking (with a busy
  timeout), and a torn WAL tail after a hard kill is dropped by
  sqlite's WAL recovery on the next open — the lost row is a miss,
  recomputed on demand.
* **Versioned keys** — every row key carries :data:`VERDICT_VERSION`,
  so a verdict written by code whose checkers decided differently is a
  miss, never served.
* **Per-row checksums** — every payload row carries its own sha256;
  a row that fails verification on read (bit rot, a writer killed
  mid-page before WAL, manual tampering) is *skipped and dropped*,
  never returned.
* **Heal on open** — a store file sqlite refuses to open (a torn or
  garbage header) is quarantined by an atomic rename to
  ``<name>.corrupt`` and a fresh store is created in its place: a
  damaged cache must cost recomputation, never availability.
* **Never on the request path's critical failure edge** — store
  errors are absorbed into counters (``errors``); a full disk or a
  locked database degrades the cache, not the verdicts.

Only deterministic statuses (``ok``, ``degraded`` — the cacheable set)
are stored, so a stored entry is always safe to serve.

Examples
--------
>>> import tempfile, pathlib
>>> path = pathlib.Path(tempfile.mkdtemp()) / "results.sqlite"
>>> store = SqliteStore(path)
>>> store.put("fp-1", {"status": "ok", "is_optimal": True})
True
>>> store.get("fp-1")["is_optimal"]
True
>>> store.close()
>>> reopened = SqliteStore(path)       # survives the process
>>> reopened.get("fp-1")["status"]
'ok'
>>> reopened.close()
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.exceptions import UsageError

__all__ = ["STORED_STATUSES", "VERDICT_VERSION", "SqliteStore"]

#: Statuses durable enough to persist: deterministic for fixed inputs
#: and budget.  ``timeout`` depends on the wall clock and ``error`` may
#: reflect a worker failure, so neither is ever cached or stored.
STORED_STATUSES = frozenset({"ok", "degraded"})

#: The version of the code that decides verdicts, mixed into every row
#: key.  Bump it whenever a checker, search, or construction change can
#: alter a stored verdict (a fix to a checker's answer is the canonical
#: case): rows written under any other version then miss and are
#: recomputed instead of served.
VERDICT_VERSION = 1

#: Seconds a statement waits on another process's write lock before
#: giving up (the failed operation is counted, not raised).
BUSY_TIMEOUT_S = 5.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    checksum    TEXT NOT NULL,
    payload     TEXT NOT NULL
)
"""


def _checksum(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _row_key(key: str) -> str:
    """The stored row key: the request fingerprint under this version."""
    return f"v{VERDICT_VERSION}:{key}"


class SqliteStore:
    """A durable fingerprint → result-dict store shared across processes.

    Thread-safe (one connection guarded by a lock — the daemon's worker
    threads all funnel through it) and multi-process safe (WAL mode
    plus a busy timeout; each process opens its own connection to the
    same file).  ``get`` returns a *copy* of the stored dict or None;
    ``put`` returns whether the row was durably written (synced).

    Parameters
    ----------
    path:
        The sqlite file; parent directories must exist.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._errors = 0
        self._dropped = 0
        self._healed = False
        self._connection = self._open()

    # -- lifecycle ---------------------------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        """Open (and if needed heal) the store file.

        A file sqlite cannot treat as a database — a torn tail that
        corrupted the header, a half-written copy, garbage — is
        quarantined to ``<name>.corrupt`` with an atomic rename and
        replaced by a fresh store.  WAL recovery handles the benign
        torn tails (a killed writer) transparently.
        """
        try:
            return self._connect()
        except sqlite3.DatabaseError:
            return self._heal()

    def _heal(self) -> sqlite3.Connection:
        """Quarantine the unreadable store file and start fresh.

        Quarantine, don't delete: the operator may want the bytes.
        Concurrent healers (several fleet workers opening the same torn
        store) must not race on the rename — a loser renaming *after*
        the winner already created a fresh store would quarantine the
        healthy file and clobber the evidence.  An exclusive lock file
        serializes healers; the holder re-probes before renaming (a
        previous healer may have fixed the store already), and waiters
        whose wait exceeds the busy timeout break a stale lock (a
        healer SIGKILLed mid-heal) rather than spin forever.
        """
        lock = self.path.with_name(self.path.name + ".heal-lock")
        deadline = time.monotonic() + BUSY_TIMEOUT_S
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                # Another healer holds the lock: give it a beat, then
                # see whether the store is healthy now.
                time.sleep(0.05)
                try:
                    return self._connect()
                except sqlite3.DatabaseError:
                    if time.monotonic() >= deadline:
                        with contextlib.suppress(FileNotFoundError):
                            os.unlink(lock)
        try:
            # Holding the lock.  Re-probe first: the previous holder
            # may have quarantined and rebuilt while we waited.
            try:
                return self._connect()
            except sqlite3.DatabaseError:
                pass
            try:
                os.replace(
                    self.path,
                    self.path.with_name(self.path.name + ".corrupt"),
                )
            except FileNotFoundError:
                pass
            self._healed = True
            return self._connect()
        finally:
            os.close(fd)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(lock)

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(
            self.path,
            timeout=BUSY_TIMEOUT_S,
            check_same_thread=False,
            isolation_level=None,  # autocommit: one statement, one txn
        )
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=FULL")
            connection.execute(_SCHEMA)
        except sqlite3.DatabaseError:
            connection.close()
            raise
        return connection

    @property
    def healed(self) -> bool:
        """Whether opening quarantined a corrupt store file."""
        return self._healed

    def close(self) -> None:
        """Close the connection (idempotent)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- the store surface -------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored result dict for ``key``, or None.

        A row whose payload fails its checksum (or no longer parses) is
        dropped and counted under ``dropped`` — corruption must never
        surface as a served result.
        """
        with self._lock:
            if self._connection is None:
                raise UsageError("store is closed")
            try:
                row = self._connection.execute(
                    "SELECT checksum, payload FROM results "
                    "WHERE fingerprint = ?",
                    (_row_key(key),),
                ).fetchone()
            except sqlite3.Error:
                self._errors += 1
                return None
            if row is None:
                self._misses += 1
                return None
            checksum, payload = row
            if _checksum(payload) != checksum:
                self._drop(key)
                self._misses += 1
                return None
            try:
                document = json.loads(payload)
            except json.JSONDecodeError:
                self._drop(key)
                self._misses += 1
                return None
            if (
                not isinstance(document, dict)
                or document.get("status") not in STORED_STATUSES
            ):
                self._drop(key)
                self._misses += 1
                return None
            self._hits += 1
            return document

    def _drop(self, key: str) -> None:
        """Delete one corrupt row (lock held; errors absorbed)."""
        self._dropped += 1
        try:
            self._connection.execute(
                "DELETE FROM results WHERE fingerprint = ?", (_row_key(key),)
            )
        except sqlite3.Error:
            self._errors += 1

    def put(self, key: str, result: Dict[str, Any]) -> bool:
        """Durably store one result dict; returns whether it landed.

        True means the row is committed and synced to disk.
        Non-deterministic statuses are refused (returns False) — a
        persisted ``timeout`` would outlive the slow machine that
        produced it.  Write errors (locked database, full disk) are
        absorbed and counted under ``errors``: the caller still has
        its verdict, only the durable copy is missing.
        """
        if result.get("status") not in STORED_STATUSES:
            return False
        payload = json.dumps(result, sort_keys=True)
        with self._lock:
            if self._connection is None:
                raise UsageError("store is closed")
            try:
                self._connection.execute(
                    "INSERT OR REPLACE INTO results "
                    "(fingerprint, checksum, payload) VALUES (?, ?, ?)",
                    (_row_key(key), _checksum(payload), payload),
                )
            except sqlite3.Error:
                self._errors += 1
                return False
            self._puts += 1
            return True

    def __len__(self) -> int:
        with self._lock:
            if self._connection is None:
                return 0
            try:
                (count,) = self._connection.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()
            except sqlite3.Error:
                return 0
            return int(count)

    def stats(self) -> Dict[str, Any]:
        """A snapshot of size and hit/miss/put/error/heal counts."""
        size = len(self)
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "path": str(self.path),
                "size": size,
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "errors": self._errors,
                "dropped": self._dropped,
                "healed": self._healed,
                "hit_rate": self._hits / lookups if lookups else 0.0,
            }

    def __repr__(self) -> str:
        return f"SqliteStore({self.path})"
