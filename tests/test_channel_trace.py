"""Tests for repro.channel.trace."""

import numpy as np
import pytest

from repro.channel.trace import SignalTrace


def make_trace(samples=None, fs=100.0, t0=0.0):
    if samples is None:
        samples = np.arange(10, dtype=float)
    return SignalTrace(np.asarray(samples, dtype=float), fs, t0)


class TestBasics:
    def test_duration(self):
        assert make_trace(np.zeros(200), fs=100.0).duration_s == pytest.approx(2.0)

    def test_times(self):
        tr = make_trace(np.zeros(3), fs=10.0, t0=1.0)
        assert np.allclose(tr.times(), [1.0, 1.1, 1.2])

    def test_len(self):
        assert len(make_trace(np.zeros(7))) == 7

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            SignalTrace(np.zeros((3, 3)), 10.0)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            SignalTrace(np.zeros(5), 0.0)
        # NaN passes a bare `<= 0` check; garbage rates must not reach
        # the decoder as a trace.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SignalTrace(np.zeros(5), bad)

    def test_bad_start_time(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                SignalTrace(np.zeros(5), 100.0, bad)


class TestNormalization:
    def test_unit_interval(self):
        tr = make_trace([2.0, 6.0, 4.0]).normalized()
        assert tr.samples.min() == 0.0
        assert tr.samples.max() == 1.0

    def test_constant_maps_to_zero(self):
        tr = make_trace([5.0, 5.0, 5.0]).normalized()
        assert np.all(tr.samples == 0.0)

    def test_metadata_flag(self):
        assert make_trace().normalized().meta.get("normalized") is True

    def test_original_untouched(self):
        tr = make_trace([2.0, 6.0])
        tr.normalized()
        assert tr.samples.max() == 6.0


class TestSlicing:
    def test_slice_time(self):
        tr = make_trace(np.arange(100), fs=10.0)
        sub = tr.slice_time(2.0, 4.0)
        assert sub.start_time_s == pytest.approx(2.0)
        assert sub.samples[0] == 20.0

    def test_empty_window_rejected(self):
        tr = make_trace(np.arange(100), fs=10.0)
        with pytest.raises(ValueError):
            tr.slice_time(50.0, 60.0)
        with pytest.raises(ValueError):
            tr.slice_time(3.0, 3.0)

    def test_slice_is_copy(self):
        tr = make_trace(np.arange(100), fs=10.0)
        sub = tr.slice_time(0.0, 1.0)
        sub.samples[0] = 999.0
        assert tr.samples[0] == 0.0


class TestResample:
    def test_length_scales(self):
        tr = make_trace(np.sin(np.linspace(0, 6, 300)), fs=100.0)
        up = tr.resampled(200.0)
        assert len(up) == pytest.approx(600, abs=2)

    def test_preserves_shape(self):
        t = np.linspace(0.0, 1.0, 101)
        tr = SignalTrace(np.sin(2 * np.pi * 2 * t), 100.0)
        down = tr.resampled(50.0)
        t2 = down.times()
        assert np.allclose(down.samples, np.sin(2 * np.pi * 2 * t2),
                           atol=0.01)

    def test_bad_rate(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                make_trace().resampled(bad)


class TestStats:
    def test_swing(self):
        assert make_trace([1.0, 5.0, 3.0]).swing() == pytest.approx(4.0)

    def test_mean(self):
        assert make_trace([1.0, 3.0]).mean() == pytest.approx(2.0)

    def test_describe_contains_rate(self):
        assert "100" in make_trace().describe()


class TestConcat:
    def test_contiguous_chunks_concatenate(self):
        a = make_trace(np.arange(10.0), fs=100.0, t0=0.0)
        b = make_trace(np.arange(10.0, 15.0), fs=100.0, t0=0.10)
        joined = a.concat(b)
        assert np.array_equal(joined.samples, np.arange(15.0))
        assert joined.start_time_s == 0.0
        assert len(joined) == 15

    def test_end_time(self):
        tr = make_trace(np.zeros(10), fs=100.0, t0=1.0)
        assert tr.end_time_s == pytest.approx(1.1)

    def test_rate_mismatch_rejected(self):
        a = make_trace(np.zeros(10), fs=100.0)
        b = make_trace(np.zeros(10), fs=200.0, t0=0.1)
        with pytest.raises(ValueError, match="sample rates"):
            a.concat(b)

    def test_gap_rejected(self):
        a = make_trace(np.zeros(10), fs=100.0)
        late = make_trace(np.zeros(10), fs=100.0, t0=0.5)
        with pytest.raises(ValueError, match="not contiguous"):
            a.concat(late)

    def test_overlap_rejected(self):
        a = make_trace(np.zeros(10), fs=100.0)
        early = make_trace(np.zeros(10), fs=100.0, t0=0.05)
        with pytest.raises(ValueError, match="not contiguous"):
            a.concat(early)

    def test_sub_sample_jitter_tolerated(self):
        a = make_trace(np.zeros(10), fs=100.0)
        b = make_trace(np.ones(5), fs=100.0, t0=0.1 + 0.002)
        joined = a.concat(b)
        assert len(joined) == 15

    def test_meta_merges_later_wins(self):
        a = SignalTrace(np.zeros(5), 100.0, 0.0, {"k": 1, "only_a": True})
        b = SignalTrace(np.zeros(5), 100.0, 0.05, {"k": 2})
        joined = a.concat(b)
        assert joined.meta == {"k": 2, "only_a": True}

    def test_bad_tolerance(self):
        a = make_trace(np.zeros(5))
        b = make_trace(np.zeros(5), t0=0.05)
        with pytest.raises(ValueError):
            a.concat(b, time_tolerance_fraction=1.0)

    def test_chunked_reassembly_matches_original(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=100)
        whole = make_trace(samples, fs=250.0, t0=2.0)
        pieces = [SignalTrace(samples[i:i + 17], 250.0,
                              2.0 + i / 250.0)
                  for i in range(0, 100, 17)]
        rebuilt = pieces[0]
        for piece in pieces[1:]:
            rebuilt = rebuilt.concat(piece)
        assert np.array_equal(rebuilt.samples, whole.samples)
        assert rebuilt.start_time_s == whole.start_time_s


class TestFromChunks:
    def test_assembles_stream(self):
        trace = SignalTrace.from_chunks(
            [np.arange(3.0), np.arange(3.0, 7.0), np.empty(0)],
            sample_rate_hz=50.0, start_time_s=1.0, meta={"src": "t"})
        assert np.array_equal(trace.samples, np.arange(7.0))
        assert trace.sample_rate_hz == 50.0
        assert trace.start_time_s == 1.0
        assert trace.meta == {"src": "t"}

    def test_no_chunks_is_empty_trace(self):
        trace = SignalTrace.from_chunks([], sample_rate_hz=10.0)
        assert len(trace) == 0

    def test_bad_rate(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SignalTrace.from_chunks([np.zeros(3)], sample_rate_hz=bad)

    def test_non_1d_chunk_rejected(self):
        with pytest.raises(ValueError, match="chunk 1"):
            SignalTrace.from_chunks([np.zeros(3), np.zeros((2, 2))],
                                    sample_rate_hz=10.0)
