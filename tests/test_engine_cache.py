"""Tests for repro.engine.cache — the content-hash result store."""

import json
import sqlite3

import pytest

from repro.engine import ResultCache, RunRecord


def make_record(spec_hash="ab" + "0" * 62, seed=7, success=True):
    return RunRecord(
        spec_hash=spec_hash,
        spec={"bits": "00", "seed": seed},
        seed=seed,
        sent_bits="00",
        decoded_bits="00" if success else "",
        success=success,
        stage="decoded" if success else "preamble_not_found",
        ber=0.0 if success else 1.0,
        n_samples=500,
        trace_duration_s=0.25,
        sample_rate_hz=2000.0,
        noise_floor_lux=450.0,
        elapsed_s=0.01,
    )


def store_raw(cache, key, payload):
    """Write ``payload`` under ``key`` behind the cache's back."""
    with sqlite3.connect(cache.path) as conn:
        conn.execute("INSERT OR REPLACE INTO records (key, payload) "
                     "VALUES (?, ?)", (key, payload))


class TestRoundtrip:
    def test_put_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = make_record()
        cache.put(record)
        assert cache.get(record.spec_hash) == record
        assert record.spec_hash in cache
        assert len(cache) == 1

    def test_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" + "1" * 62) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_stats_track_hits_and_writes(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = make_record()
        cache.put(record)
        cache.get(record.spec_hash)
        cache.get("ff" + "2" * 62)
        assert cache.stats.writes == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_timing_survives_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = make_record()
        cache.put(record)
        assert cache.get(record.spec_hash).elapsed_s == record.elapsed_s


class TestRobustness:
    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = make_record()
        cache.put(record)
        store_raw(cache, record.spec_hash, "{not json")
        assert cache.get(record.spec_hash) is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = make_record()
        cache.put(record)
        store_raw(cache, record.spec_hash, json.dumps({"bogus": 1}))
        assert cache.get(record.spec_hash) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_record(spec_hash="ab" + "0" * 62))
        cache.put(make_record(spec_hash="cd" + "1" * 62))
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_overwrite_updates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_record(success=True))
        cache.put(make_record(success=False))
        assert cache.get(make_record().spec_hash).success is False


class TestCorruptEntries:
    """Regression: membership must mirror readability — a torn entry
    that ``get()`` treats as a miss must not satisfy ``in``."""

    def _corrupt(self, cache, record, text):
        store_raw(cache, record.spec_hash, text)

    def test_torn_file_not_contained(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = make_record()
        self._corrupt(cache, record, '{"spec_hash": "ab')  # torn write
        assert record.spec_hash not in cache
        assert cache.get(record.spec_hash) is None

    def test_wrong_schema_not_contained(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = make_record()
        self._corrupt(cache, record, '{"unknown_field": 1}')
        assert record.spec_hash not in cache
        assert cache.get(record.spec_hash) is None

    def test_membership_consistent_with_get_after_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = make_record()
        assert record.spec_hash not in cache
        cache.put(record)
        assert record.spec_hash in cache
        assert cache.get(record.spec_hash) == record

    def test_overwriting_corrupt_entry_repairs_membership(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = make_record()
        self._corrupt(cache, record, "not json at all")
        assert record.spec_hash not in cache
        cache.put(record)
        assert record.spec_hash in cache


class TestInvalidation:
    def test_spec_change_misses(self, tmp_path):
        """A changed spec gets a new hash, so stale results never leak."""
        from repro.engine import ScenarioSpec

        cache = ResultCache(tmp_path)
        spec = ScenarioSpec(seed=1)
        record = make_record(spec_hash=spec.content_hash())
        cache.put(record)
        assert cache.get(spec.content_hash()) == record
        nudged = spec.replace(receiver_height_m=0.21)
        assert cache.get(nudged.content_hash()) is None


class TestLegacyDirectory:
    def test_old_json_shards_read_as_misses(self, tmp_path):
        """A directory holding per-record JSON files from an older store
        is a cold cache: the files are neither read nor touched."""
        record = make_record()
        shard = tmp_path / record.spec_hash[:2]
        shard.mkdir()
        legacy = shard / f"{record.spec_hash}.json"
        legacy.write_text(json.dumps(record.to_dict()))
        cache = ResultCache(tmp_path)
        assert cache.get(record.spec_hash) is None
        assert len(cache) == 0
        cache.put(record)
        assert cache.clear() == 1
        assert legacy.exists()


class _FlakyConnection:
    """Connection proxy whose record upserts fail ``fail_times`` times."""

    def __init__(self, conn, fail_times, error):
        self.conn = conn
        self.left = fail_times
        self.error = error

    def execute(self, sql, *args):
        if sql.startswith("INSERT") and self.left > 0:
            self.left -= 1
            raise self.error
        return self.conn.execute(sql, *args)

    def __enter__(self):
        return self.conn.__enter__()

    def __exit__(self, *exc_info):
        return self.conn.__exit__(*exc_info)

    def __getattr__(self, name):
        return getattr(self.conn, name)


class TestWriteRetry:
    """Transient write errors on put() are absorbed by the retry policy."""

    LOCKED = sqlite3.OperationalError("database is locked")

    def _flaky_cache(self, tmp_path, fail_times, error=LOCKED,
                     max_attempts=3):
        from repro.faults.retry import RetryPolicy

        cache = ResultCache(tmp_path, retry_policy=RetryPolicy(
            max_attempts=max_attempts, base_delay_s=0.0))
        cache._conn = _FlakyConnection(cache._conn, fail_times, error)
        return cache

    def test_transient_error_retried_to_success(self, tmp_path):
        cache = self._flaky_cache(tmp_path, fail_times=2)
        record = make_record()
        cache.put(record)
        assert cache.get(record.spec_hash) == record
        assert cache.stats.writes == 1
        assert cache.stats.write_retries == 2

    def test_persistent_error_propagates_as_oserror(self, tmp_path):
        cache = self._flaky_cache(tmp_path, fail_times=99,
                                  error=OSError("storage hiccup"))
        before = cache.retry_policy.attempts_made  # the schema set-up
        with pytest.raises(OSError, match="hiccup"):
            cache.put(make_record())
        assert cache.stats.writes == 0
        assert cache.retry_policy.attempts_made - before == 3

    def test_no_temp_litter_after_failed_put(self, tmp_path):
        cache = self._flaky_cache(tmp_path, fail_times=99)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            cache.put(make_record())
        # The failed transaction rolled back: no row, no stray files.
        assert len(cache) == 0
        assert not list(tmp_path.rglob("*.tmp"))

    def test_default_policy_is_bounded(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.retry_policy.max_attempts == 3
        assert cache.retry_policy.base_delay_s == pytest.approx(0.01)
