"""Tests for repro.hardware.frontend (cap + full receive chain)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.amplifier import Amplifier, first_order_lowpass
from repro.hardware.frontend import FovCap, ReceiverFrontEnd
from repro.hardware.led_receiver import LedReceiver
from repro.hardware.photodiode import PdGain, Photodiode


class TestFovCap:
    def test_paper_cap_dimensions(self):
        cap = FovCap.paper_cap()
        assert cap.opening_m == pytest.approx(0.012)
        assert cap.depth_m == pytest.approx(0.028)

    def test_cap_angle_geometry(self):
        cap = FovCap.paper_cap()
        expected = 2.0 * math.degrees(math.atan2(0.006, 0.028))
        assert cap.full_angle_deg == pytest.approx(expected)

    def test_capped_fov_takes_minimum(self):
        cap = FovCap.paper_cap()
        pd = Photodiode.opt101()
        capped = cap.capped_fov(pd.fov)
        assert capped.full_angle_deg == pytest.approx(cap.full_angle_deg)
        narrow = LedReceiver.red_5mm()
        assert cap.capped_fov(narrow.fov).full_angle_deg == pytest.approx(
            narrow.fov.full_angle_deg)

    def test_validation(self):
        with pytest.raises(ValueError):
            FovCap(opening_m=0.0)
        with pytest.raises(ValueError):
            FovCap(transmission=0.0)
        with pytest.raises(ValueError):
            FovCap(ambient_rejection=1.5)


class TestFrontEndGeometry:
    def test_effective_fov_without_cap(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101())
        assert fe.effective_fov.full_angle_deg == pytest.approx(
            Photodiode.opt101().fov.full_angle_deg)

    def test_with_cap_narrows(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101()).with_cap()
        assert fe.effective_fov.full_angle_deg < 30.0
        assert fe.signal_transmission < 1.0
        assert fe.ambient_transmission < 1.0

    def test_saturates_at_uses_ambient_path(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G2))
        assert fe.saturates_at(1200.0)
        assert not fe.saturates_at(1000.0)
        capped = fe.with_cap()
        # The cap attenuates ambient light, extending the usable range.
        assert not capped.saturates_at(1200.0)


class TestCapture:
    def test_deterministic_with_seed(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(), seed=5)
        lux = np.full(400, 200.0)
        a = fe.capture(lux, sample_rate_hz=1000.0)
        b = fe.capture(lux, sample_rate_hz=1000.0)
        assert np.array_equal(a, b)

    def test_output_range(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G1),
                              seed=1)
        lux = np.linspace(0.0, 2000.0, 1000)
        codes = fe.capture(lux, sample_rate_hz=1000.0)
        assert codes.min() >= 0
        assert codes.max() <= 1023

    def test_saturation_rails_output(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G1),
                              seed=1)
        lux = np.full(600, 6200.0)
        codes = fe.capture(lux, sample_rate_hz=1000.0)
        assert float((codes >= 1015).mean()) > 0.9

    def test_linear_region_level(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G2),
                              seed=1)
        lux = np.full(2000, 600.0)
        codes = fe.capture(lux, sample_rate_hz=1000.0)
        expected = 600.0 / 1200.0 * 1023
        assert float(np.median(codes[500:])) == pytest.approx(expected, rel=0.02)

    def test_rejects_2d_input(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101())
        with pytest.raises(ValueError):
            fe.capture(np.zeros((10, 10)), sample_rate_hz=100.0)

    def test_rejects_negative_lux(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101())
        with pytest.raises(ValueError):
            fe.capture(np.array([-1.0]), sample_rate_hz=100.0)

    def test_describe_mentions_detector(self):
        fe = ReceiverFrontEnd(detector=LedReceiver.red_5mm())
        assert "RX-LED" in fe.describe()

    def test_input_checks_keep_their_messages(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101())
        with pytest.raises(ValueError, match="sample rate must be positive"):
            fe.capture(np.zeros(10), sample_rate_hz=0.0)
        with pytest.raises(ValueError, match="expected a 1-D waveform"):
            fe.capture(np.zeros((2, 5)), sample_rate_hz=100.0)
        with pytest.raises(ValueError, match="illuminance cannot be negative"):
            fe.capture(np.array([1.0, -1.0]), sample_rate_hz=100.0)


def _literal_capture(fe, lux, fs, rng):
    """The receive chain written out for one 1-D row (the oracle)."""
    v = fe.detector.respond(first_order_lowpass(lux, fe.detector.bandwidth_hz,
                                                fs))
    noise = rng.normal(0.0, 1.0, size=v.shape) if rng else np.zeros(v.shape)
    v = np.clip(v + noise * fe.detector.noise_sigma(v), 0.0, 1.0)
    amp = fe.amplifier
    v = np.clip(first_order_lowpass(v * amp.gain + amp.input_offset,
                                    amp.bandwidth_hz, fs),
                amp.rail_low, amp.rail_high)
    return fe.adc.convert(v)


class TestRowSplit:
    """``capture`` is ``prepare`` (seed-independent) followed by the
    row-wise ``digitize_rows``; rows of one stack equal one-row
    captures."""

    @given(detector=st.sampled_from(["pd", "led"]),
           amp_bw_hz=st.sampled_from([None, 40.0, 300.0]),
           noisy=st.lists(st.booleans(), min_size=1, max_size=4),
           lux_seed=st.integers(0, 2**31 - 1),
           n=st.integers(2, 400))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_per_row_capture(self, detector, amp_bw_hz, noisy,
                                        lux_seed, n):
        fs = 1000.0
        amplifier = (Amplifier.lm358() if amp_bw_hz is None
                     else Amplifier(gain=1.5, bandwidth_hz=amp_bw_hz,
                                    input_offset=0.01))
        fe = ReceiverFrontEnd(
            detector=(Photodiode.opt101() if detector == "pd"
                      else LedReceiver.red_5mm()),
            amplifier=amplifier)
        lux = np.random.default_rng(lux_seed).uniform(0.0, 3000.0, size=n)
        seeds = range(lux_seed % 97, lux_seed % 97 + len(noisy))
        v0, sigma = fe.prepare(lux, fs)
        rows = fe.digitize_rows(
            v0, sigma,
            [np.random.default_rng(s) if on else None
             for s, on in zip(seeds, noisy)], fs)
        assert rows.shape == (len(noisy), n)
        for row, seed, on in zip(rows, seeds, noisy):
            rng = np.random.default_rng(seed) if on else None
            assert np.array_equal(row, _literal_capture(
                fe, lux, fs, np.random.default_rng(seed) if on else None))
            if rng is not None:
                assert np.array_equal(row, fe.capture(lux, fs, rng))
