"""Tests for repro.obs.registry — metrics registry and activation."""

import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    active_registry,
    set_registry,
    telemetry,
    telemetry_enabled,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test starts with telemetry fully off (no forced registry)."""
    set_registry(None)
    yield
    set_registry(None)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="counters only go up"):
            reg.counter("x").inc(-1.0)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", {"backend": "disk"}).inc()
        reg.counter("hits", {"backend": "sqlite"}).inc(2)
        assert reg.counter("hits", {"backend": "disk"}).value == 1.0
        assert reg.counter("hits", {"backend": "sqlite"}).value == 2.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"a": "1", "b": "2"})
        b = reg.counter("x", {"b": "2", "a": "1"})
        assert a is b


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0

    def test_set_max_keeps_high_water_mark(self):
        g = MetricsRegistry().gauge("peak")
        g.set_max(3.0)
        g.set_max(1.0)
        assert g.value == 3.0
        g.set_max(7.0)
        assert g.value == 7.0


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]  # last slot is +Inf
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)

    def test_boundary_value_lands_in_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.1)  # le= semantics: exactly at the bound counts
        assert h.counts == [1, 0, 0]

    def test_rejects_non_increasing_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("bad2", buckets=())

    def test_default_buckets_cover_stage_times(self):
        assert DEFAULT_BUCKETS[0] == 0.0001
        assert DEFAULT_BUCKETS[-1] == 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            reg.gauge("a")
        # Even with different labels the name keeps its kind.
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.histogram("a", {"x": "1"})

    def test_snapshot_is_plain_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z_total").inc()
        reg.counter("a_total", {"k": "v"}).inc(2)
        reg.gauge("depth").set(3)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        names = [c["name"] for c in snap["counters"]]
        assert names == ["a_total", "z_total"]
        assert snap["counters"][0]["labels"] == {"k": "v"}
        assert snap["gauges"][0]["value"] == 3.0
        hist = snap["histograms"][0]
        assert hist["buckets"] == [1.0]
        assert hist["counts"] == [1, 0]
        assert hist["sum"] == 0.5 and hist["count"] == 1
        # Snapshot must be detached: mutating it leaves the registry alone.
        hist["counts"][0] = 99
        assert reg.histogram("lat", buckets=(1.0,)).counts == [1, 0]

    def test_concurrent_increments_lose_nothing(self):
        """Satellite: two threads hammering the same labelled counter."""
        reg = MetricsRegistry()
        n = 5000

        def work():
            for _ in range(n):
                reg.counter("hits", {"backend": "disk"}).inc()
                reg.histogram("lat", {"backend": "disk"}).observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits", {"backend": "disk"}).value == 2 * n
        assert reg.histogram("lat", {"backend": "disk"}).count == 2 * n


class TestActivation:
    def test_off_by_default(self):
        assert active_registry() is None
        assert not telemetry_enabled()

    def test_set_registry_forces_on_and_off(self):
        reg = MetricsRegistry()
        set_registry(reg)
        assert active_registry() is reg
        set_registry(None)
        assert active_registry() is None

    def test_telemetry_scope_activates_and_restores(self):
        with telemetry() as reg:
            assert active_registry() is reg
        assert active_registry() is None

    def test_telemetry_scope_accepts_existing_registry(self):
        mine = MetricsRegistry()
        with telemetry(mine) as reg:
            assert reg is mine
