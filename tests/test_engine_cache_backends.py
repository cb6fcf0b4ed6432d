"""Tests for the SQLite result store's storage-level contract.

One database per cache directory: record payloads round-trip, a
corrupt row is a miss, the connection closes cleanly, and two writer
processes can share one database.
"""

import sqlite3
from concurrent.futures import ProcessPoolExecutor

from repro.engine import BatchRunner, ResultCache

from tests.test_engine_cache import make_record


def _concurrent_writer(root, offset, n):
    """Worker-process body: write ``n`` records into a shared cache."""
    cache = ResultCache(root)
    for k in range(offset, offset + n):
        cache.put(make_record(spec_hash=f"{k:064x}", seed=k))
    cache.close()
    return n


class TestSqliteRoundtrip:
    def test_put_get_contains_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = make_record()
        cache.put(record)
        assert cache.get(record.spec_hash) == record
        assert record.spec_hash in cache
        assert len(cache) == 1
        assert cache.stats.writes == 1
        assert cache.stats.hits == 1
        cache.close()

    def test_miss_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" + "1" * 62) is None
        assert cache.stats.misses == 1
        cache.close()

    def test_overwrite_is_idempotent(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_record())
        cache.put(make_record())
        assert len(cache) == 1
        cache.close()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_record(spec_hash="ab" + "0" * 62))
        cache.put(make_record(spec_hash="cd" + "1" * 62))
        assert cache.clear() == 2
        assert len(cache) == 0
        cache.close()

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "2" * 62
        with sqlite3.connect(cache.path) as conn:
            conn.execute(
                "INSERT INTO records (key, payload) VALUES (?, ?)",
                (key, "{not json"))
        assert cache.get(key) is None
        assert key not in cache
        assert cache.stats.misses == 1
        cache.close()

    def test_close_is_idempotent(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.close()
        cache.close()


class TestConcurrentSqliteWriters:
    def test_two_processes_share_one_database(self, tmp_path):
        # Overlapping key ranges: upserts must be idempotent, and the
        # WAL database must survive two writer processes.
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_concurrent_writer, tmp_path, 0, 12),
                       pool.submit(_concurrent_writer, tmp_path, 6, 12)]
            assert [f.result(timeout=60) for f in futures] == [12, 12]
        cache = ResultCache(tmp_path)
        assert len(cache) == 18
        for k in range(18):
            record = cache.get(f"{k:064x}")
            assert record is not None
            assert record.seed == k
        cache.close()


class TestRunnerCacheSelection:
    def test_path_opens_result_cache(self, tmp_path):
        for root in (tmp_path / "a", str(tmp_path / "b")):
            with BatchRunner(cache=root) as runner:
                assert isinstance(runner.cache, ResultCache)
            runner.cache.close()

    def test_instance_passthrough(self, tmp_path):
        cache = ResultCache(tmp_path)
        with BatchRunner(cache=cache) as runner:
            assert runner.cache is cache
