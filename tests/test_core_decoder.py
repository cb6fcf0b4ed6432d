"""Tests for repro.core.decoder (the Section 4.1 algorithm)."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.simulator import ChannelSimulator, SimulatorConfig
from repro.channel.trace import SignalTrace
import repro.core.decoder as decoder_mod
from repro.core.decoder import (
    CLOCK_SEARCH_SPAN,
    WINDOW_SHRINK_FRACTION,
    AdaptiveThresholdDecoder,
    DecodeResult,
    DecoderConfig,
    decode_rows,
)
from repro.core.errors import DecodeError, PreambleNotFoundError
from repro.tags.encoding import Symbol

from .conftest import build_indoor_scene


def synthetic_packet_trace(symbols="HLHLHLHL", symbol_duration_s=0.4,
                           fs=200.0, high=100.0, low=20.0, base=10.0,
                           rise_fraction=0.15, noise=0.0, seed=0,
                           lead_s=1.0, tail_s=1.0):
    """Render a symbol string as a smooth two-level waveform."""
    rng = np.random.default_rng(seed)
    per_symbol = int(symbol_duration_s * fs)
    levels = [high if s == "H" else low for s in symbols]
    steps = np.concatenate([np.full(per_symbol, lv) for lv in levels])
    lead = np.full(int(lead_s * fs), base)
    tail = np.full(int(tail_s * fs), base)
    x = np.concatenate([lead, steps, tail]).astype(float)
    # Smooth the edges like FoV blur does.
    k = max(3, int(rise_fraction * per_symbol))
    kernel = np.hanning(k)
    kernel /= kernel.sum()
    x = np.convolve(x, kernel, mode="same")
    if noise > 0.0:
        x = x + rng.normal(0.0, noise, size=len(x))
    return SignalTrace(x, fs)


class TestConfigValidation:
    def test_threshold_rule(self):
        with pytest.raises(ValueError):
            DecoderConfig(threshold_rule="banana")


class TestThresholds:
    def test_paper_formulas(self):
        """tau_r and tau_t exactly as defined in Section 4.1."""
        from repro.dsp.peaks import Extremum

        a = Extremum(index=0, time_s=1.0, value=0.9, kind="peak")
        b = Extremum(index=1, time_s=1.4, value=0.1, kind="valley")
        c = Extremum(index=2, time_s=1.8, value=0.8, kind="peak")
        tau_r, tau_t = AdaptiveThresholdDecoder.thresholds((a, b, c))
        assert tau_r == pytest.approx(((0.9 - 0.1) + (0.8 - 0.1)) / 2.0)
        assert tau_t == pytest.approx(0.4)

    def test_degenerate_anchors_rejected(self):
        from repro.dsp.peaks import Extremum

        a = Extremum(index=0, time_s=1.0, value=0.1, kind="peak")
        b = Extremum(index=1, time_s=1.4, value=0.9, kind="valley")
        c = Extremum(index=2, time_s=1.8, value=0.1, kind="peak")
        with pytest.raises(PreambleNotFoundError):
            AdaptiveThresholdDecoder.thresholds((a, b, c))


class TestSyntheticDecoding:
    @pytest.mark.parametrize("data_symbols,bits", [
        ("HLHL", "00"), ("LHHL", "10"), ("HLLH", "01"), ("LHLH", "11"),
        ("LHHLLHHL", "1010"),
    ])
    def test_decodes_known_payloads(self, data_symbols, bits):
        trace = synthetic_packet_trace("HLHL" + data_symbols)
        result = AdaptiveThresholdDecoder().decode(
            trace, n_data_symbols=len(data_symbols))
        assert result.symbol_string() == data_symbols
        assert result.bit_string() == bits
        assert result.preamble_verified

    def test_tau_t_matches_symbol_duration(self):
        trace = synthetic_packet_trace("HLHLHLHL", symbol_duration_s=0.5)
        result = AdaptiveThresholdDecoder().decode(trace, n_data_symbols=4)
        assert result.tau_t == pytest.approx(0.5, rel=0.1)

    def test_amplitude_invariance(self):
        """Per-packet thresholds: scaling and offset must not matter."""
        t1 = synthetic_packet_trace("HLHLLHHL", high=100.0, low=20.0, base=10.0)
        t2 = SignalTrace(t1.samples * 3.7 + 55.0, t1.sample_rate_hz)
        r1 = AdaptiveThresholdDecoder().decode(t1, n_data_symbols=4)
        r2 = AdaptiveThresholdDecoder().decode(t2, n_data_symbols=4)
        assert r1.symbol_string() == r2.symbol_string() == "LHHL"

    def test_speed_invariance(self):
        """Different symbol durations (same packet) decode identically."""
        for duration in (0.2, 0.4, 0.8):
            trace = synthetic_packet_trace("HLHLHLLH",
                                           symbol_duration_s=duration)
            result = AdaptiveThresholdDecoder().decode(trace,
                                                       n_data_symbols=4)
            assert result.bit_string() == "01"

    def test_noise_tolerance(self):
        trace = synthetic_packet_trace("HLHLLHHL", noise=4.0, seed=1)
        result = AdaptiveThresholdDecoder().decode(trace, n_data_symbols=4)
        assert result.bit_string() == "10"

    def test_auto_length_mode(self):
        trace = synthetic_packet_trace("HLHLLHHL")
        result = AdaptiveThresholdDecoder().decode(trace)
        assert result.bit_string() == "10"

    def test_invalid_manchester_reported(self):
        trace = synthetic_packet_trace("HLHLHHHH")
        result = AdaptiveThresholdDecoder().decode(trace, n_data_symbols=4)
        assert result.bits is None
        assert not result.success
        assert result.symbol_string() == "HHHH"


class TestFailureModes:
    def test_constant_trace(self):
        trace = SignalTrace(np.full(500, 42.0), 100.0)
        with pytest.raises(PreambleNotFoundError):
            AdaptiveThresholdDecoder().decode(trace)

    def test_pure_noise(self):
        rng = np.random.default_rng(0)
        trace = SignalTrace(rng.normal(100.0, 1.0, 800), 100.0)
        with pytest.raises(PreambleNotFoundError):
            AdaptiveThresholdDecoder().decode(trace)

    def test_truncated_after_preamble(self):
        trace = synthetic_packet_trace("HLHL", tail_s=0.0)
        with pytest.raises((DecodeError, PreambleNotFoundError)):
            AdaptiveThresholdDecoder().decode(trace, n_data_symbols=8)

    def test_raised_errors_leave_no_reference_cycles(self):
        """A failed decode or acquisition frees its frames at once;
        streaming acquisition fails on most chunks, so a cycle per
        failure would pile up until the cyclic collector runs."""
        flat = SignalTrace(np.full(500, 42.0), 100.0)
        decoder = AdaptiveThresholdDecoder()
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                for call in (decoder.decode, decoder.acquire_preamble):
                    try:
                        call(flat)
                    except PreambleNotFoundError:
                        pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_bad_n_symbols(self):
        trace = synthetic_packet_trace("HLHLHLHL")
        with pytest.raises(ValueError):
            AdaptiveThresholdDecoder().decode(trace, n_data_symbols=0)


class TestThresholdRules:
    def test_rules_agree_on_valley_anchored_signal(self):
        """With the valley near zero the 'paper' and 'midpoint' rules
        coincide (DESIGN.md Section 5)."""
        trace = synthetic_packet_trace("HLHLLHHL", high=1.0, low=0.02,
                                       base=0.0)
        r_mid = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="midpoint")).decode(
                trace, n_data_symbols=4)
        r_paper = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="paper")).decode(
                trace, n_data_symbols=4)
        assert r_mid.symbol_string() == r_paper.symbol_string() == "LHHL"

    def test_midpoint_survives_pedestal(self):
        """A large DC pedestal breaks the literal tau_r comparison but
        not the midpoint rule."""
        trace = synthetic_packet_trace("HLHLLHHL", high=520.0, low=450.0,
                                       base=440.0)
        r_mid = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="midpoint")).decode(
                trace, n_data_symbols=4)
        assert r_mid.bit_string() == "10"
        r_paper = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="paper")).decode(
                trace, n_data_symbols=4)
        # The paper rule compares max against the ~70-count swing, which
        # every pedestal-riding window exceeds: all HIGH.
        assert r_paper.symbol_string() == "HHHH"


class TestEndToEnd:
    def test_fig5_scene_decodes(self, indoor_receiver):
        scene = build_indoor_scene(bits="10")
        sim = ChannelSimulator(scene, indoor_receiver,
                               SimulatorConfig(sample_rate_hz=500.0, seed=42))
        result = AdaptiveThresholdDecoder().decode(sim.capture_pass(),
                                                   n_data_symbols=4)
        assert result.bit_string() == "10"

    def test_decode_result_reports_windows(self, indoor_capture_00):
        result = AdaptiveThresholdDecoder().decode(indoor_capture_00,
                                                   n_data_symbols=4)
        assert len(result.windows) == 4
        for w in result.windows:
            assert w.t_end_s > w.t_start_s


def _refine_clock_reference(smooth, times, base_anchor, tau_t, tau_r,
                            level, n_probe):
    """The clock search as the literal scale x delta x window triple loop.

    The readable oracle for the decode kernel's batched search
    (``repro.core.decoder._refine_clock``): every window is located with
    ``np.searchsorted`` and reduced with a plain slice.
    """
    def window(w_start, w_end):
        i0 = int(np.searchsorted(times, w_start, side="left"))
        i1 = int(np.searchsorted(times, w_end, side="left"))
        if i1 <= i0 or i0 >= len(smooth):
            return None
        return smooth[i0:i1]

    span = CLOCK_SEARCH_SPAN
    expected_high = (True, False, True, False)
    best = None
    best_score = -np.inf
    for scale in np.linspace(1.0 - span, 1.0 + span, 13):
        cand_tau = tau_t * scale
        shrink = WINDOW_SHRINK_FRACTION * cand_tau
        for rel_delta in np.linspace(-0.35, 0.35, 15):
            anchor = base_anchor + rel_delta * cand_tau
            margins = []
            for k, is_high in enumerate(expected_high):
                seg = window(anchor + k * cand_tau + shrink,
                             anchor + (k + 1) * cand_tau - shrink)
                if seg is None:
                    margins = []
                    break
                w_max = float(seg.max())
                margins.append(w_max - level if is_high else level - w_max)
            if not margins or min(margins) <= 0.0:
                continue
            ranges = []
            data_start = anchor + 4.0 * cand_tau
            for k in range(n_probe):
                seg = window(data_start + k * cand_tau + shrink,
                             data_start + (k + 1) * cand_tau - shrink)
                if seg is None:
                    break
                ranges.append(float(seg.max() - seg.min()))
            roughness = float(np.mean(ranges)) if ranges else 0.0
            score = (min(margins) / tau_r
                     - 0.5 * roughness / tau_r
                     - 0.9 * abs(scale - 1.0)
                     - 0.25 * abs(rel_delta))
            if score > best_score:
                best_score = score
                best = (cand_tau, anchor)
    if best is None:
        return tau_t, base_anchor
    return best


def _acquired_stack(traces, rule="midpoint"):
    """Run the kernel's acquisition and threshold steps on a stack.

    Returns the clock-search inputs for the rows that acquired.
    """
    raw = np.stack([t.samples for t in traces])
    t0, fs = traces[0].start_time_s, traces[0].sample_rate_hz
    rows = []
    for got in decoder_mod._acquire_rows(raw, t0, fs):
        if isinstance(got, PreambleNotFoundError):
            continue
        points, smooth = got
        tau_r, tau_t = AdaptiveThresholdDecoder.thresholds(points)
        level = decoder_mod.threshold_level(rule, tau_r, points[1].value)
        rows.append((smooth, points[0].time_s - 0.5 * tau_t, tau_t, tau_r,
                     level))
    return rows


def _kernel_clock(rows, times, t0, fs, n_probe):
    smooths, base, tau_t, tau_r, level = (np.array(c) for c in zip(*rows))
    tables = decoder_mod._range_tables(smooths, tau_t, fs)
    return decoder_mod._refine_clock(times, t0, fs, tables, base, tau_t,
                                     tau_r, level, n_probe)


class TestVectorizedRefineClock:
    """The kernel's batched clock search equals the literal triple loop."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("symbols", ["HLHLHLLH", "HLHLLHHLHLLH"])
    def test_matches_reference_on_noisy_traces(self, seed, symbols):
        trace = synthetic_packet_trace(symbols, noise=3.0, seed=seed)
        rows = _acquired_stack([trace])
        if not rows:
            pytest.skip("acquisition rejected this noise draw; the "
                        "clock search never runs")
        times = trace.times()
        smooth, base, tau_t, tau_r, level = rows[0]
        for n_probe in (8, len(symbols) - 4):
            tau, anchor = _kernel_clock(rows, times, trace.start_time_s,
                                        trace.sample_rate_hz, n_probe)
            ref = _refine_clock_reference(smooth, times, base, tau_t,
                                          tau_r, level, n_probe)
            assert (float(tau[0]), float(anchor[0])) == ref

    @pytest.mark.parametrize("rule", ["midpoint", "paper"])
    def test_matches_reference_across_rows(self, rule):
        """At R > 1 every row still equals its own oracle answer."""
        traces = [synthetic_packet_trace("HLHLLHHLHLLH", noise=noise,
                                         seed=seed)
                  for seed, noise in enumerate((0.0, 1.0, 3.0, 5.0, 2.0))]
        rows = _acquired_stack(traces, rule)
        assert len(rows) >= 3
        times = traces[0].times()
        for n_probe in (8, 4, 12):
            tau, anchor = _kernel_clock(rows, times, 0.0,
                                        traces[0].sample_rate_hz, n_probe)
            for r, (smooth, base, tau_t, tau_r, level) in enumerate(rows):
                ref = _refine_clock_reference(smooth, times, base, tau_t,
                                              tau_r, level, n_probe)
                assert (float(tau[r]), float(anchor[r])) == ref

    def test_decode_matches_reference_end_to_end(self, monkeypatch):
        """Full decodes driven by either clock search agree exactly."""
        trace = synthetic_packet_trace("HLHLHLLHHLLH", noise=2.0, seed=3)
        vec = AdaptiveThresholdDecoder().decode(trace)

        def reference_clock(times, t0, fs, tables, base, tau_t, tau_r,
                            level, n_probe):
            # Level 0 of the max table is the smoothed rows themselves.
            answers = [_refine_clock_reference(
                smooth, times, base[r], tau_t[r], tau_r[r], level[r],
                n_probe) for r, smooth in enumerate(tables[0][0])]
            return tuple(np.array(col) for col in zip(*answers))

        monkeypatch.setattr(decoder_mod, "_refine_clock", reference_clock)
        ref = AdaptiveThresholdDecoder().decode(trace)
        assert vec == ref

    def test_windowed_max_matches_scalar_windows(self):
        """Range-table window maxima equal plain slice maxima on randomly
        placed (including empty) windows."""
        rng = np.random.default_rng(11)
        trace = synthetic_packet_trace("HLHLHLLH", noise=1.0, seed=5)
        rows = _acquired_stack([trace])
        smooth, _, tau_t, _, _ = rows[0]
        times = trace.times()
        fs = trace.sample_rate_hz
        starts = rng.uniform(times[0] - 0.5, times[-1] + 0.5, size=(1, 200))
        ends = starts + rng.uniform(-0.05, 0.4, size=(1, 200))
        tables = decoder_mod._range_tables(smooth[None, :],
                                           np.array([tau_t]), fs)
        maxima, valid = decoder_mod._windowed_max(times, 0.0, fs, tables,
                                                  starts, ends)
        for k in range(200):
            i0 = int(np.searchsorted(times, starts[0, k]))
            i1 = int(np.searchsorted(times, ends[0, k]))
            if i1 <= i0 or i0 >= len(smooth):
                assert not valid[0, k]
            else:
                assert valid[0, k]
                assert maxima[0, k] == smooth[i0:i1].max()


def _outcome(result):
    """A comparable view of one row's decode: the result or error type."""
    if isinstance(result, DecodeResult):
        return result
    return type(result)


_PACKET_ROW = st.tuples(
    st.sampled_from(["HLHL", "LHHL", "HLLH", "LHLH", "HHHH", "LLLL"]),
    st.floats(0.0, 25.0), st.integers(0, 2**16), st.floats(0.5, 3.0))
_FLAT_ROW = st.floats(-50.0, 500.0)


class TestDecodeRows:
    """The kernel's rows are independent: stacking never changes a row."""

    @given(rows=st.lists(st.one_of(_PACKET_ROW, _FLAT_ROW), min_size=1,
                         max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_stack_rows_equal_single_rows(self, rows):
        traces = []
        for row in rows:
            if isinstance(row, tuple):
                data, noise, seed, gain = row
                trace = synthetic_packet_trace("HLHL" + data, noise=noise,
                                               seed=seed)
                traces.append(SignalTrace(trace.samples * gain, 200.0))
            else:
                # Same grid as the packet rows: 1 s lead + 8 symbols of
                # 0.4 s + 1 s tail at 200 Hz.
                traces.append(SignalTrace(np.full(1040, row), 200.0))
        for n_data in (4, None):
            stacked = decode_rows(traces, n_data)
            for trace, got in zip(traces, stacked):
                alone = decode_rows([trace], n_data)[0]
                assert _outcome(got) == _outcome(alone)

    @given(n=st.integers(0, 3),
           values=st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=12),
           n_rows=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_tiny_grids_never_acquire(self, n, values, n_rows):
        traces = [SignalTrace(np.array(values[3 * r:3 * r + n]), 100.0)
                  for r in range(n_rows)]
        for n_data in (4, None):
            stacked = decode_rows(traces, n_data)
            assert [type(r) for r in stacked] == [
                type(decode_rows([t], n_data)[0]) for t in traces]
            assert all(isinstance(r, PreambleNotFoundError)
                       for r in stacked)

    def test_mixed_grids_rejected(self):
        trace = synthetic_packet_trace("HLHLLHHL")
        shifted = SignalTrace(trace.samples, trace.sample_rate_hz, 0.5)
        with pytest.raises(ValueError, match="one sample grid"):
            decode_rows([trace, shifted], 4)
        with pytest.raises(ValueError, match="one sample grid"):
            decode_rows([trace, SignalTrace(trace.samples[:-1],
                                            trace.sample_rate_hz)], 4)

    def test_errors_are_returned_not_raised(self):
        packet = synthetic_packet_trace("HLHLLHHL")
        flat = SignalTrace(np.full(len(packet.samples), 7.0), 200.0)
        good, missing = decode_rows([packet, flat], 4)
        assert good.bit_string() == "10"
        assert isinstance(missing, PreambleNotFoundError)
        assert decode_rows([], 4) == []
