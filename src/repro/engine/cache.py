"""Content-addressed result cache.

:class:`CacheBackend` is the protocol the batch runner talks to;
:class:`ResultCache` is the one implementation that ships — a single
SQLite database in WAL mode (``<root>/records.sqlite``).  One inode
instead of one per record, and safe under concurrent writers because
record payloads are deterministic per key, so last-writer-wins upserts
are idempotent.  Anything else under the cache directory (for example
the per-record JSON files an older store wrote there) is ignored, so
such a directory simply reads as cold misses.

Any spec change — a different seed, a nudged height, a new decoder —
changes the content hash and therefore misses the cache; stale entries
are never returned, only orphaned (and reclaimable via ``clear``).
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from ..faults.retry import RetryExhausted, RetryPolicy
from ..obs.events import active_events
from ..obs.registry import active_registry
from .records import RunRecord

__all__ = ["CacheBackend", "CacheStats", "ResultCache"]


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance's lifetime.

    Attributes:
        hits: lookups that returned a record.
        misses: lookups that found nothing (or an unreadable entry).
        writes: records persisted.
        write_retries: transient IO errors that a retry absorbed.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_retries: int = 0


def _observe_lookup(backend: str, key: str, hit: bool) -> None:
    """Incremental telemetry for one cache lookup (no-op when off)."""
    registry = active_registry()
    if registry is not None:
        registry.counter("cache_lookups_total",
                         {"backend": backend,
                          "result": "hit" if hit else "miss"}).inc()
    log = active_events()
    if log is not None:
        log.emit("cache_hit" if hit else "cache_miss",
                 backend=backend, key=key)


def _observe_write(backend: str, retries: int) -> None:
    """Incremental telemetry for one cache write (no-op when off)."""
    registry = active_registry()
    if registry is None:
        return
    registry.counter("cache_writes_total", {"backend": backend}).inc()
    if retries:
        registry.counter("cache_write_retries_total",
                         {"backend": backend}).inc(retries)


@runtime_checkable
class CacheBackend(Protocol):
    """What the batch runner requires of a result cache.

    Keyed by resolved-spec content hash; values are complete
    :class:`RunRecord` payloads.  Implementations must treat corrupt
    or torn entries as misses (the scenario re-executes and
    overwrites), and must expose a :class:`CacheStats` instance as
    ``stats``.
    """

    stats: CacheStats

    def get(self, key: str) -> RunRecord | None:
        """The cached record for a spec hash, or None."""
        ...

    def put(self, record: RunRecord) -> None:
        """Persist a record under its spec hash."""
        ...

    def __contains__(self, key: str) -> bool:
        ...

    def __len__(self) -> int:
        ...

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed."""
        ...


class ResultCache:
    """SQLite-backed spec-hash -> :class:`RunRecord` store.

    One ``records.sqlite`` database under ``root``, in WAL mode so
    readers never block the writer and concurrent sweeps sharing the
    cache serialize on short row upserts instead of whole-file locks.
    Record payloads are deterministic per key (the engine's
    determinism contract), so ``INSERT OR REPLACE`` under concurrent
    writers is idempotent — last writer wins with identical bytes.

    Args:
        root: cache directory (created if missing); the database file
            lives inside it.
        retry_policy: bounded-retry policy for transient write
            failures (``sqlite3.OperationalError`` — e.g. a lock
            still held past the busy timeout — and ``OSError``).
            Default: three attempts, 10 ms base backoff.
    """

    #: Database filename under the cache root.
    FILENAME = "records.sqlite"

    #: Telemetry label for this backend.
    backend_name = "sqlite"

    def __init__(self, root: str | Path,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_s=0.01)
        self.path = self.root / self.FILENAME
        self._conn = sqlite3.connect(self.path, timeout=5.0)
        # Two processes opening a fresh cache race on the WAL switch:
        # changing the journal mode takes an exclusive lock and can
        # report "database is locked" immediately rather than honouring
        # the busy timeout, so first-open initialization retries under
        # the same bounded policy as writes.
        try:
            self.retry_policy.call(self._init_schema,
                                   retry_on=(sqlite3.OperationalError,))
        except RetryExhausted as exc:
            raise exc.last from exc

    def _init_schema(self) -> None:
        """One attempt at the first-open pragmas and table DDL."""
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS records ("
            "key TEXT PRIMARY KEY, payload TEXT NOT NULL)")
        self._conn.commit()

    def _read(self, key: str) -> RunRecord | None:
        """Parse the record under ``key``, or None when absent or
        unreadable."""
        try:
            row = self._conn.execute(
                "SELECT payload FROM records WHERE key = ?",
                (key,)).fetchone()
            return (RunRecord.from_dict(json.loads(row[0]))
                    if row is not None else None)
        except (sqlite3.Error, ValueError, TypeError):
            return None

    def get(self, key: str) -> RunRecord | None:
        """The cached record for a spec hash, or None.

        An unparsable payload counts as a miss rather than an error —
        the scenario simply re-executes and overwrites it.
        """
        record = self._read(key)
        _observe_lookup(self.backend_name, key, hit=record is not None)
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record

    def _upsert(self, key: str, payload: str) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO records (key, payload) "
                "VALUES (?, ?)", (key, payload))

    def put(self, record: RunRecord) -> None:
        """Persist a record under its spec hash.

        Transient failures (a writer lock outlasting the busy
        timeout) are retried under :attr:`retry_policy`; a persistent
        error propagates as the original exception once the budget is
        spent.
        """
        payload = json.dumps(record.to_dict())
        before = self.retry_policy.retries
        try:
            self.retry_policy.call(
                lambda: self._upsert(record.spec_hash, payload),
                retry_on=(sqlite3.OperationalError, OSError))
        except RetryExhausted as exc:
            self.stats.write_retries += self.retry_policy.retries - before
            raise exc.last from exc
        self.stats.write_retries += self.retry_policy.retries - before
        self.stats.writes += 1
        _observe_write(self.backend_name,
                       self.retry_policy.retries - before)

    def __contains__(self, key: str) -> bool:
        """Membership mirrors :meth:`get`: an unparsable stored payload
        is not "in" the cache."""
        return self._read(key) is not None

    def __len__(self) -> int:
        return int(self._conn.execute(
            "SELECT COUNT(*) FROM records").fetchone()[0])

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed."""
        with self._conn:
            cursor = self._conn.execute("DELETE FROM records")
        return cursor.rowcount

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - close is best-effort
            pass

    def __del__(self) -> None:  # pragma: no cover - GC timing
        self.close()
