"""Tests for repro.stream.decode and repro.stream.detect."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.trace import SignalTrace
from repro.core import decoder as decoder_mod
from repro.core.decoder import AdaptiveThresholdDecoder, threshold_level
from repro.core.errors import PreambleNotFoundError
from repro.dsp import filters as filters_mod
from repro.dsp import peaks as peaks_mod
from repro.dsp.filters import moving_average
from repro.dsp.peaks import find_peaks_and_valleys
from repro.engine.executor import build_decoder, capture_trace
from repro.engine.spec import ScenarioSpec
from repro.stream import detect as detect_mod
from repro.stream import (
    PreambleDetector,
    StreamBuffer,
    StreamDecoder,
    StreamState,
    iter_chunks,
    replay_trace,
)
from repro.stream.detect import AcquiredPreamble
from repro.tags.encoding import Symbol, manchester_encode


def synthetic_trace(bits="10", fs=100.0, symbol_s=0.5, lead_s=1.0,
                    tail_s=1.0, noise=0.0, seed=0) -> SignalTrace:
    """Clean HLHL preamble + Manchester data as half-sine bumps."""
    symbols = [Symbol.HIGH, Symbol.LOW, Symbol.HIGH, Symbol.LOW]
    symbols += manchester_encode([int(b) for b in bits])
    per = int(round(symbol_s * fs))
    parts = [np.zeros(int(lead_s * fs))]
    for symbol in symbols:
        if symbol is Symbol.HIGH:
            parts.append(np.sin(np.pi * np.linspace(0.0, 1.0, per,
                                                    endpoint=False)))
        else:
            parts.append(np.zeros(per))
    parts.append(np.zeros(int(tail_s * fs)))
    samples = np.concatenate(parts)
    if noise:
        samples = samples + noise * np.random.default_rng(seed).normal(
            size=len(samples))
    return SignalTrace(samples, fs)


class TestStateMachine:
    def test_walks_all_states(self):
        trace = synthetic_trace()
        stream = StreamDecoder(trace.sample_rate_hz, n_data_symbols=4)
        assert stream.state is StreamState.IDLE
        states = {stream.state}
        for chunk in iter_chunks(trace.samples, 16):
            stream.push(chunk)
            states.add(stream.state)
        stream.flush()
        states.add(stream.state)
        assert states == {StreamState.IDLE, StreamState.ACQUIRING,
                          StreamState.DECODING, StreamState.EMITTED}

    def test_push_after_flush_rejected(self):
        stream = StreamDecoder(100.0)
        stream.push(np.zeros(10))
        stream.flush()
        with pytest.raises(RuntimeError):
            stream.push(np.zeros(10))

    def test_flush_is_idempotent(self):
        trace = synthetic_trace()
        stream = StreamDecoder(trace.sample_rate_hz, n_data_symbols=4)
        stream.push(trace.samples)
        first = stream.flush()
        assert len(first) == 1
        assert stream.flush() == []
        assert len([e for e in stream.events if e.kind == "verdict"]) == 1

    def test_bad_n_data_symbols(self):
        with pytest.raises(ValueError):
            StreamDecoder(100.0, n_data_symbols=0)

    @pytest.mark.parametrize("stride", [-1.0, math.nan, math.inf])
    def test_bad_check_stride(self, stride):
        """A NaN stride never compares >= the elapsed time, so the
        decoder would run no check and emit no onset at all."""
        with pytest.raises(ValueError, match="check_stride_s"):
            StreamDecoder(100.0, check_stride_s=stride)


class TestAcquisitionDecoderSelection:
    def test_adaptive_decoder_shared_with_detector(self):
        from repro.core.decoder import DecoderConfig

        decoder = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="paper"))
        stream = StreamDecoder(100.0, decoder=decoder)
        assert stream.detector.decoder is decoder

    def test_two_phase_wrapper_contributes_inner_adaptive(self):
        """A wrapper decoder's configured inner adaptive decoder drives
        acquisition, so telemetry shares the verdict's thresholds."""
        from repro.core.decoder import DecoderConfig
        from repro.vehicles.rooftag import TwoPhaseDecoder

        inner = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="paper"))
        stream = StreamDecoder(100.0, decoder=TwoPhaseDecoder(decoder=inner))
        assert stream.detector.decoder is inner

    def test_opaque_decoder_falls_back_to_defaults(self):
        class Opaque:
            def decode(self, trace, n_data_symbols=None):
                raise NotImplementedError

        stream = StreamDecoder(100.0, decoder=Opaque())
        assert isinstance(stream.detector.decoder,
                          AdaptiveThresholdDecoder)


class TestEvents:
    def test_full_event_sequence(self):
        trace = synthetic_trace(bits="10")
        stream = StreamDecoder(trace.sample_rate_hz, n_data_symbols=4)
        for chunk in iter_chunks(trace.samples, 8):
            stream.push(chunk)
        stream.flush()
        kinds = [e.kind for e in stream.events]
        assert kinds == ["onset", "first_bit", "verdict"]

    def test_event_timestamps_nondecreasing(self):
        trace = synthetic_trace(bits="1001", noise=0.02)
        stream = StreamDecoder(trace.sample_rate_hz, n_data_symbols=8)
        for chunk in iter_chunks(trace.samples, 5):
            stream.push(chunk)
        stream.flush()
        times = [e.stream_time_s for e in stream.events]
        assert times == sorted(times)

    def test_onset_latency_positive_and_bounded(self):
        trace = synthetic_trace()
        replay = replay_trace(trace, 8, n_data_symbols=4)
        onset = replay.decoder.event("onset")
        # Detection cannot precede the signal, and must lock on within
        # a couple of symbol periods of the A peak.
        assert 0.0 < onset.latency_s < 2.0 * 0.5 + 0.5

    def test_provisional_first_bit_matches_payload(self):
        for bits in ("10", "01"):
            trace = synthetic_trace(bits=bits)
            replay = replay_trace(trace, 8, n_data_symbols=4)
            assert replay.decoder.event("first_bit").bits == bits[0]

    def test_events_carry_session_id(self):
        trace = synthetic_trace()
        stream = StreamDecoder(trace.sample_rate_hz, n_data_symbols=4,
                               session_id="rx7")
        stream.push(trace.samples)
        stream.flush()
        assert all(e.session_id == "rx7" for e in stream.events)

    def test_event_to_dict_round_trips_json(self):
        import json

        trace = synthetic_trace()
        replay = replay_trace(trace, 16, n_data_symbols=4)
        payload = json.dumps([e.to_dict() for e in replay.events])
        assert json.loads(payload)[0]["kind"] == "onset"


class TestParity:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    @pytest.mark.parametrize("bits,noise", [("1001", 0.0), ("10", 0.02)])
    def test_verdict_matches_offline(self, chunk_size, bits, noise):
        trace = synthetic_trace(bits=bits, noise=noise)
        n_data_symbols = 2 * len(bits)
        offline = AdaptiveThresholdDecoder().decode(
            trace, n_data_symbols=n_data_symbols)
        replay = replay_trace(trace, chunk_size,
                              n_data_symbols=n_data_symbols)
        assert replay.verdict.bits == offline.bit_string()
        assert replay.verdict.success == offline.success
        # Not just the payload: the decode result itself is identical.
        assert replay.decoder.result.tau_t == offline.tau_t
        assert replay.decoder.result.symbols == offline.symbols

    def test_failed_offline_decode_fails_identically(self):
        trace = SignalTrace(np.zeros(500), 100.0)
        replay = replay_trace(trace, 32)
        assert replay.verdict.bits == ""
        assert replay.verdict.stage == "preamble_not_found"


class TestDegenerateStreams:
    def test_empty_stream_flushes_cleanly(self):
        stream = StreamDecoder(100.0)
        events = stream.flush()
        assert events[0].stage == "preamble_not_found"

    def test_constant_stream_at_chunk_one(self):
        stream = StreamDecoder(100.0)
        for _ in range(300):
            stream.push(np.array([5.0]))
        verdict = stream.flush()[0]
        assert verdict.bits == ""
        assert stream.state is StreamState.EMITTED

    def test_tiny_stream(self):
        stream = StreamDecoder(100.0)
        stream.push(np.array([1.0, 2.0]))
        assert stream.flush()[0].stage == "preamble_not_found"

    def test_ramp_without_preamble(self):
        stream = StreamDecoder(100.0)
        for chunk in iter_chunks(np.linspace(0.0, 1.0, 400), 16):
            stream.push(chunk)
        assert stream.flush()[0].bits == ""


class TestNormalizerIntegration:
    def test_normalizer_sees_every_sample(self):
        trace = synthetic_trace()
        replay = replay_trace(trace, 17, n_data_symbols=4)
        norm = replay.decoder.normalizer
        assert norm.count == len(trace)
        assert np.array_equal(norm.normalize(trace.samples),
                              trace.normalized().samples)


class TestPreambleDetector:
    def test_scan_cost_stays_incremental(self):
        """The detector must not re-scan the full history per check."""
        fs = 100.0
        quiet = np.zeros(3000)
        buf = StreamBuffer(fs)
        detector = PreambleDetector()
        for chunk in iter_chunks(quiet, 8):
            buf.append(chunk)
            assert detector.check(buf) is None
        naive = detector.n_checks * len(quiet) // 2
        assert detector.n_scanned_samples < naive / 4
        assert detector.n_scanned_samples < 80_000

    def test_detects_after_quiet_leader(self):
        trace = synthetic_trace(lead_s=20.0)
        replay = replay_trace(trace, 16, n_data_symbols=4)
        onset = replay.decoder.event("onset")
        assert onset is not None
        # The A peak sits one half-symbol past the 20 s leader.
        assert onset.signal_time_s == pytest.approx(20.25, abs=0.2)
        assert replay.verdict.bits == "10"

    def test_noisy_quiet_feed_stays_incremental(self):
        """Pure noise (no packet yet) must not pin the scan anchor:
        smoothed noise always has span-relative extrema, but none of
        them clear the 4-sigma signal bound, so the window must stay
        near min_overlap instead of growing toward the cap
        (regression: a 2 kHz noise feed re-scanned 63x the stream)."""
        fs = 2000.0
        rng = np.random.default_rng(1)
        buf = StreamBuffer(fs)
        detector = PreambleDetector()
        per_check = []
        for _ in range(125):
            buf.append(rng.normal(0.0, 1.0, size=64))
            before = detector.n_scanned_samples
            assert detector.check(buf) is None
            per_check.append(detector.n_scanned_samples - before)
        # Steady state: one overlap (1 s = 2000 samples) plus the new
        # chunk, not a window growing toward max_overlap_s (24000).
        assert max(per_check[40:]) <= int(1.0 * fs) + 64 + 100
        assert detector.n_scanned_samples < 4 * buf.n_appended * 10

    def test_bad_overlap_config(self):
        with pytest.raises(ValueError):
            PreambleDetector(min_overlap_s=0.0)
        with pytest.raises(ValueError):
            PreambleDetector(min_overlap_s=2.0, max_overlap_s=1.0)
        # NaN slips past ordered comparisons: a NaN min overlap never
        # advances the scan start, a NaN max overlap drops the cap.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                PreambleDetector(min_overlap_s=bad)
            with pytest.raises(ValueError):
                PreambleDetector(max_overlap_s=bad)

    def test_bounded_window_on_long_feeds(self):
        """Per-check cost is capped by max_overlap_s."""
        fs = 100.0
        buf = StreamBuffer(fs)
        detector = PreambleDetector(min_overlap_s=0.5, max_overlap_s=2.0)
        rng = np.random.default_rng(0)
        per_check = []
        for _ in range(100):
            buf.append(rng.normal(size=50))
            before = detector.n_scanned_samples
            detector.check(buf)
            per_check.append(detector.n_scanned_samples - before)
        # Late checks scan at most the overlap cap plus one chunk.
        assert max(per_check[10:]) <= int(2.0 * fs) + 50


class _ReScanningDetector(PreambleDetector):
    """Oracle: the detector as it was before the advance step read the
    scan's finest-scale evidence.  Each check wraps the window in a
    :class:`SignalTrace`, lets acquisition raise, and on a miss smooths
    the window, re-derives its noise floor and re-runs the peak and
    valley search on its own."""

    def check(self, buffer):
        if self._scan_from_s is None:
            self._scan_from_s = buffer.start_time_s
        t_end = buffer.end_time_s
        start = max(self._scan_from_s, buffer.first_time_s,
                    t_end - self.max_overlap_s)
        view, t0 = buffer.window_with_time(start, t_end + 1.0)
        if len(view) < self.MIN_WINDOW_SAMPLES:
            return None
        self.n_checks += 1
        self.n_scanned_samples += len(view)
        trace = SignalTrace(view, buffer.sample_rate_hz, t0)
        try:
            points = self.decoder.acquire_preamble(trace)
        except PreambleNotFoundError:
            self._rescan_advance(trace, t_end)
            return None
        tau_r, tau_t = self.decoder.thresholds(points)
        level = threshold_level(self.decoder.config.threshold_rule, tau_r,
                                points[1].value)
        return AcquiredPreamble(points=points, tau_r=tau_r, tau_t=tau_t,
                                threshold_level=level, detected_at_s=t_end)

    def _rescan_advance(self, trace, t_end):
        quiet_from = t_end - self.min_overlap_s
        x = trace.samples
        smooth = moving_average(x, max(3, len(x) // 200))
        span = float(smooth.max() - smooth.min()) if len(smooth) else 0.0
        noise_sigma = (float(np.std(np.diff(x))) / math.sqrt(2.0)
                       if len(x) > 3 else 0.0)
        if span > 0.0 and span >= 4.0 * noise_sigma:
            extrema = find_peaks_and_valleys(smooth, trace.sample_rate_hz,
                                             trace.start_time_s)
            if extrema:
                anchor = extrema[0].time_s - self.min_overlap_s
                quiet_from = min(quiet_from, anchor)
        new_start = max(self._scan_from_s or trace.start_time_s,
                        min(quiet_from, t_end))
        self._scan_from_s = max(new_start, t_end - self.max_overlap_s)


#: Outdoor RX-LED passes over the light levels and heights where
#: decoding succeeds, degrades and saturates.
_OUTDOOR = dict(source="sun", detector="led", cap=False, ground="tarmac",
                symbol_width_m=0.1, speed_mps=5.0)


@functools.lru_cache(maxsize=32)
def _outdoor_pass(lux, height, bits, seed):
    spec = ScenarioSpec(**_OUTDOOR, ground_lux=lux, receiver_height_m=height,
                        bits=bits, seed=seed).resolve()
    return capture_trace(spec), build_decoder(spec)


def _feed(kind, seed):
    """``(samples, sample_rate_hz, start_time_s, n_data_symbols,
    decoder)`` for one drawn feed."""
    rng = np.random.default_rng(seed)
    if kind == "quiet":
        # Silence, a constant pedestal or sensor noise, before any
        # packet arrives.
        level = float(rng.choice([0.0, 512.0]))
        noise = float(rng.choice([0.0, 1.0]))
        samples = level + noise * rng.normal(size=int(rng.integers(200, 1500)))
        return samples, 100.0, 0.0, None, AdaptiveThresholdDecoder()
    if kind == "packet":
        bits = "".join(rng.choice(["0", "1"], size=int(rng.integers(1, 4))))
        trace = synthetic_trace(bits=bits,
                                lead_s=float(rng.uniform(0.0, 6.0)),
                                noise=float(rng.choice([0.0, 0.02, 0.2])),
                                seed=seed)
        # Inverted polarity puts a valley before the first peak.
        polarity = float(rng.choice([1.0, -1.0]))
        return (polarity * trace.samples, trace.sample_rate_hz, 1.5,
                2 * len(bits), AdaptiveThresholdDecoder())
    lux = float(rng.choice([100.0, 450.0, 6200.0, 21500.0]))
    height = float(rng.choice([0.25, 0.4, 0.6, 0.8]))
    bits = "".join(rng.choice(["0", "1"], size=2))
    trace, decoder = _outdoor_pass(lux, height, bits, seed + 1)
    return (trace.samples, trace.sample_rate_hz, trace.start_time_s,
            2 * len(bits), decoder)


class TestDetectorMatchesReScanningOracle:
    """The advance step reads the scan's evidence instead of
    recomputing it; every decision must stay what the re-scanning
    detector decided."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["quiet", "packet", "outdoor"]),
           seed=st.integers(0, 7),
           chunk=st.sampled_from([1, 7, 64]))
    def test_every_push_agrees(self, kind, seed, chunk):
        samples, fs, t0, n_data_symbols, decoder = _feed(kind, seed)
        streams = []
        for detector_cls in (PreambleDetector, _ReScanningDetector):
            acquisition = getattr(decoder, "decoder", decoder)
            streams.append(StreamDecoder(
                fs, t0, n_data_symbols=n_data_symbols, decoder=decoder,
                detector=detector_cls(acquisition)))
        new, oracle = streams
        for piece in iter_chunks(samples, chunk):
            got = new.push(piece)
            want = oracle.push(piece)
            assert got == want
            assert new.detector._scan_from_s == oracle.detector._scan_from_s
            assert new.detector.n_checks == oracle.detector.n_checks
            assert (new.detector.n_scanned_samples
                    == oracle.detector.n_scanned_samples)
            assert new.acquired == oracle.acquired
        assert new.flush() == oracle.flush()


class TestFailedCheckScansOnce:
    """A failed check smooths each scale once and peak-searches it at
    most twice (peaks, valleys); the advance step adds at most the one
    valley search the scan skipped, and no smoothing of its own."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"smooth": 0, "search": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        smooth = counting("smooth", filters_mod.moving_average)
        search = counting("search", peaks_mod._prominent_peaks)
        for mod in (filters_mod, peaks_mod, decoder_mod, detect_mod):
            if hasattr(mod, "moving_average"):
                monkeypatch.setattr(mod, "moving_average", smooth)
            if hasattr(mod, "_prominent_peaks"):
                monkeypatch.setattr(mod, "_prominent_peaks", search)
        return counts

    @staticmethod
    def _check_once(samples):
        buf = StreamBuffer(100.0)
        buf.append(samples)
        assert PreambleDetector().check(buf) is None
        return len(decoder_mod._smoothing_scales(len(samples)))

    def test_scan_stopped_at_one_peak(self, calls):
        """A first bump in view: every scale stops after the peak
        search, and the advance step runs the one valley search."""
        samples = synthetic_trace(bits="1", lead_s=1.0).samples[:170]
        n_scales = self._check_once(samples)
        assert calls["smooth"] == n_scales
        assert calls["search"] == n_scales + 1

    def test_scan_rejected_a_triple(self, calls):
        """Two bumps around an off-centre dip: every scale searches
        peaks and valleys, rejects the spacing, and the advance step
        anchors from the recorded extrema with no search of its own."""
        bump = np.sin(np.pi * np.linspace(0.0, 1.0, 50, endpoint=False))
        samples = np.concatenate([np.zeros(100), bump, -0.5 * bump[:20],
                                  np.zeros(300), bump, np.zeros(50)])
        n_scales = self._check_once(samples)
        assert calls["smooth"] == n_scales
        assert calls["search"] == 2 * n_scales
