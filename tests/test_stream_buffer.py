"""Tests for repro.stream.buffer."""

import numpy as np
import pytest

from repro.stream.buffer import StreamBuffer


class TestConstruction:
    def test_bad_rate(self):
        with pytest.raises(ValueError):
            StreamBuffer(0.0)
        # NaN/inf pass a bare `<= 0` check and would stamp NaN stream
        # times on every event.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                StreamBuffer(bad)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                StreamBuffer(2000.0, start_time_s=bad)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            StreamBuffer(100.0, max_samples=0)

    def test_empty_state(self):
        buf = StreamBuffer(100.0, start_time_s=2.0)
        assert len(buf) == 0
        assert buf.n_appended == 0
        assert buf.end_time_s == 2.0
        assert buf.first_time_s == 2.0


class TestAppend:
    def test_chunks_accumulate(self):
        buf = StreamBuffer(100.0)
        buf.append(np.arange(5.0))
        buf.append(np.arange(5.0, 12.0))
        assert len(buf) == 12
        assert buf.n_appended == 12
        assert buf.end_time_s == pytest.approx(0.12)
        assert np.array_equal(buf.suffix(0.0), np.arange(12.0))

    def test_empty_chunk_is_noop(self):
        buf = StreamBuffer(100.0)
        buf.append(np.empty(0))
        assert len(buf) == 0 and buf.n_appended == 0

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            StreamBuffer(100.0).append(np.zeros((2, 2)))

    def test_growth_past_initial_allocation(self):
        buf = StreamBuffer(100.0)
        data = np.arange(5000.0)
        for start in range(0, 5000, 37):
            buf.append(data[start:start + 37])
        assert np.array_equal(buf.suffix(0.0), data)


class TestBoundedMode:
    def test_drops_oldest(self):
        buf = StreamBuffer(100.0, max_samples=10)
        buf.append(np.arange(25.0))
        assert len(buf) == 10
        assert buf.n_dropped == 15
        assert buf.first_index == 15
        assert np.array_equal(buf.suffix(0.0), np.arange(15.0, 25.0))

    def test_sliding_across_many_appends(self):
        buf = StreamBuffer(100.0, max_samples=8)
        data = np.arange(100.0)
        for start in range(0, 100, 3):
            buf.append(data[start:start + 3])
        assert len(buf) == 8
        assert np.array_equal(buf.suffix(0.0), data[-8:])
        assert buf.n_appended == 100
        assert buf.n_dropped == 92

    def test_oversized_chunk_keeps_tail(self):
        buf = StreamBuffer(100.0, max_samples=4)
        buf.append(np.arange(3.0))
        buf.append(np.arange(10.0, 30.0))
        assert np.array_equal(buf.suffix(0.0), [26.0, 27.0, 28.0, 29.0])
        assert buf.n_appended == 23
        assert buf.n_dropped == 19

    def test_first_time_shifts_with_drops(self):
        buf = StreamBuffer(10.0, start_time_s=1.0, max_samples=5)
        buf.append(np.arange(12.0))
        assert buf.first_time_s == pytest.approx(1.0 + 7 / 10.0)


class TestWindows:
    def test_window_is_view(self):
        buf = StreamBuffer(100.0)
        buf.append(np.arange(20.0))
        view = buf.window(0.05, 0.10)
        assert np.shares_memory(view, buf._data)
        assert np.array_equal(view, np.arange(5.0, 10.0))

    def test_window_with_time_reports_first_sample_time(self):
        buf = StreamBuffer(100.0, start_time_s=1.0)
        buf.append(np.arange(20.0))
        view, t0 = buf.window_with_time(1.055, 1.10)
        assert t0 == pytest.approx(1.06)
        assert np.array_equal(view, np.arange(6.0, 10.0))

    def test_window_clips_to_available(self):
        buf = StreamBuffer(100.0)
        buf.append(np.arange(10.0))
        assert np.array_equal(buf.window(-5.0, 50.0), np.arange(10.0))

    def test_empty_window(self):
        buf = StreamBuffer(100.0)
        buf.append(np.arange(10.0))
        assert len(buf.window(5.0, 6.0)) == 0

    def test_bad_window(self):
        with pytest.raises(ValueError):
            StreamBuffer(100.0).window(1.0, 1.0)

    def test_window_after_drop_clips_to_retained(self):
        buf = StreamBuffer(100.0, max_samples=10)
        buf.append(np.arange(25.0))
        # The first 15 samples are gone; asking for them yields what is
        # still retained.
        assert np.array_equal(buf.window(0.0, 0.20),
                              np.arange(15.0, 20.0))


class TestToTrace:
    def test_round_trip(self):
        buf = StreamBuffer(100.0, start_time_s=0.5)
        buf.append(np.arange(30.0))
        trace = buf.to_trace(meta={"origin": "test"})
        assert trace.sample_rate_hz == 100.0
        assert trace.start_time_s == 0.5
        assert trace.meta["origin"] == "test"
        assert np.array_equal(trace.samples, np.arange(30.0))

    def test_trace_is_a_copy(self):
        buf = StreamBuffer(100.0)
        buf.append(np.arange(5.0))
        trace = buf.to_trace()
        buf.append(np.arange(5.0))
        assert len(trace) == 5

    def test_dropped_history_noted_in_meta(self):
        buf = StreamBuffer(100.0, max_samples=4)
        buf.append(np.arange(10.0))
        trace = buf.to_trace()
        assert trace.meta["stream_dropped_samples"] == 6
        assert trace.start_time_s == pytest.approx(0.06)


class TestOversizedChunkAccounting:
    """Pinned regression values for the oversized-chunk append branch.

    The branch replaces the whole retained history with the chunk's
    tail; its bookkeeping (``n_dropped`` counting both the evicted
    history and the chunk's own discarded head, and the derived
    ``first_index``/``first_time_s``) is pinned here sample for sample.
    """

    def test_chunk_exactly_at_capacity_evicts_all_history(self):
        buf = StreamBuffer(100.0, max_samples=8)
        buf.append(np.arange(5.0))
        buf.append(np.arange(100.0, 108.0))     # len == max_samples
        assert len(buf) == 8
        assert np.array_equal(buf.suffix(0.0), np.arange(100.0, 108.0))
        # 5 old samples evicted, nothing of the chunk itself dropped.
        assert buf.n_dropped == 5
        assert buf.n_appended == 13
        assert buf.first_index == 5
        assert buf.first_time_s == pytest.approx(5 / 100.0)

    def test_chunk_larger_than_capacity_on_nonempty_buffer(self):
        buf = StreamBuffer(100.0, start_time_s=2.0, max_samples=4)
        buf.append(np.arange(3.0))
        buf.append(np.arange(10.0, 16.0))       # 6 > max_samples
        assert np.array_equal(buf.suffix(0.0), [12.0, 13.0, 14.0, 15.0])
        # 3 history + 2 chunk-head samples dropped.
        assert buf.n_dropped == 5
        assert buf.n_appended == 9
        assert buf.first_index == 5
        assert buf.first_time_s == pytest.approx(2.0 + 5 / 100.0)

    def test_oversized_chunk_into_empty_buffer(self):
        buf = StreamBuffer(50.0, max_samples=3)
        buf.append(np.arange(7.0))
        assert np.array_equal(buf.suffix(0.0), [4.0, 5.0, 6.0])
        assert buf.n_dropped == 4
        assert buf.first_index == 4
        assert buf.first_time_s == pytest.approx(4 / 50.0)

    def test_windows_after_oversized_append_stay_consistent(self):
        buf = StreamBuffer(100.0, max_samples=4)
        buf.append(np.arange(3.0))
        buf.append(np.arange(10.0, 16.0))
        view, t_first = buf.window_with_time(0.0, 1.0)
        assert np.array_equal(view, [12.0, 13.0, 14.0, 15.0])
        assert t_first == pytest.approx(buf.first_time_s)
