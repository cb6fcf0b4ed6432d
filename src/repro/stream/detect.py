"""Incremental preamble acquisition over a growing stream.

Offline acquisition re-scans the whole trace; doing that on every
arriving chunk is quadratic in stream length.  :class:`PreambleDetector`
re-runs the decoder's (unchanged) acquisition only over the **unseen
suffix plus an overlap**, and advances its scan start using what the
failed scan learned.  The advance step reads the evidence the scan's
finest smoothing scale left on its miss — the smoothed window, its
span and noise floor, the prominent extrema it searched — so a failed
check smooths and peak-searches the window once, not twice:

* a scan that found *extrema* but no plausible A/B/C triple keeps its
  start anchored just before the first extremum — a partially-arrived
  preamble (A and B in view, C still in flight) must stay in the window
  until its tail arrives;
* a scan that found *nothing* advances to ``end - min_overlap_s`` — a
  provably quiet prefix cannot grow a preamble retroactively, because
  prominence thresholds only rise as the packet's swing arrives;
* ``max_overlap_s`` caps the window either way, bounding per-check cost
  for arbitrarily long feeds.

Detection is an *event* estimate (when did the receiver know a packet
had started); the byte-exact verdict always comes from the offline
decode at flush time, so a conservative miss here costs latency
telemetry, never correctness.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

from ..core.decoder import (
    MIN_PROMINENCE_FRACTION,
    AdaptiveThresholdDecoder,
    _acquire_rows,
    _FinestScan,
    threshold_level,
)
from ..core.errors import PreambleNotFoundError
from ..dsp.peaks import Extremum, _prominent_peaks
from .buffer import StreamBuffer

__all__ = ["AcquiredPreamble", "PreambleDetector"]


@dataclass(frozen=True)
class AcquiredPreamble:
    """What incremental acquisition learned when it locked on.

    Attributes:
        points: the (A, B, C) anchor extrema, absolute times.
        tau_r: magnitude threshold (Section 4.1).
        tau_t: symbol-period estimate.
        threshold_level: absolute HIGH/LOW decision level.
        detected_at_s: stream time when the lock happened (the last
            ingested sample's timestamp) — onset latency is
            ``detected_at_s - points[0].time_s``.
    """

    points: tuple[Extremum, Extremum, Extremum]
    tau_r: float
    tau_t: float
    threshold_level: float
    detected_at_s: float

    @property
    def anchor_s(self) -> float:
        """Start time of preamble symbol 1 (A sits half a period in)."""
        return self.points[0].time_s - 0.5 * self.tau_t

    @property
    def data_start_s(self) -> float:
        """Start time of the first data window (after 4 preamble symbols)."""
        return self.anchor_s + 4.0 * self.tau_t


class PreambleDetector:
    """Suffix-window preamble acquisition with adaptive overlap.

    Attributes:
        decoder: the :class:`AdaptiveThresholdDecoder` whose threshold
            rule sets the acquired decision level; each window runs
            the decoder's acquisition kernel (multi-scale smoothing,
            plausibility gates) verbatim.
        min_overlap_s: overlap kept past a provably quiet prefix.
        max_overlap_s: hard cap on the scan window length.
        n_checks / n_scanned_samples: cost accounting — the incremental
            contract is that ``n_scanned_samples`` stays far below
            ``n_checks * stream_length``.
    """

    #: Windows shorter than this many samples are not worth scanning.
    MIN_WINDOW_SAMPLES = 8

    def __init__(self, decoder: AdaptiveThresholdDecoder | None = None,
                 min_overlap_s: float = 1.0,
                 max_overlap_s: float = 12.0) -> None:
        if not (math.isfinite(min_overlap_s) and min_overlap_s > 0.0):
            raise ValueError(
                f"min_overlap_s must be positive and finite, "
                f"got {min_overlap_s}")
        if not (math.isfinite(max_overlap_s)
                and max_overlap_s >= min_overlap_s):
            raise ValueError(
                f"max_overlap_s must be finite and >= min_overlap_s, "
                f"got {max_overlap_s}")
        self.decoder = decoder or AdaptiveThresholdDecoder()
        self.min_overlap_s = min_overlap_s
        self.max_overlap_s = max_overlap_s
        self._scan_from_s: float | None = None
        self.n_checks = 0
        self.n_scanned_samples = 0

    # ------------------------------------------------------------------
    def check(self, buffer: StreamBuffer) -> AcquiredPreamble | None:
        """Scan the unseen suffix (plus overlap) for the preamble.

        Returns the acquired anchor state on success, None otherwise.
        Never raises on degenerate windows (constant, tiny, empty) —
        those simply keep returning None.
        """
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
        got = _acquire_rows(view[None, :], t0, buffer.sample_rate_hz)[0]
        if isinstance(got, PreambleNotFoundError):
            self._advance(got._finest, t0, buffer.sample_rate_hz, t_end)
            return None
        points = got[0]
        tau_r, tau_t = self.decoder.thresholds(points)
        level = threshold_level(self.decoder.config.threshold_rule, tau_r,
                                points[1].value)
        return AcquiredPreamble(points=points, tau_r=tau_r, tau_t=tau_t,
                                threshold_level=level, detected_at_s=t_end)

    def _advance(self, finest: _FinestScan, t0: float, fs: float,
                 t_end: float) -> None:
        """Move the scan start past what the failed scan ruled out.

        Anchoring on *any* extremum would pin the scan start forever on
        noisy feeds — smoothed noise always has extrema because the
        prominence threshold is span-relative — and per-check cost
        would grow until the overlap cap.  So the anchor only holds
        when the window's swing towers over its sample-to-sample noise
        (the decoder's own 4-sigma plausibility bound): a window that
        is noise through and through is *quiet*, and a real packet's
        shoulder will clear the bound the moment it starts arriving.

        Everything is read off the scan's finest scale; only a valley
        search the scan skipped (it stops at fewer than two peaks) is
        run here.
        """
        quiet_from = t_end - self.min_overlap_s
        span, peaks, valleys = finest.span, finest.peaks, finest.valleys
        # ``peaks`` is None exactly when the span is unusable (zero or
        # non-finite): such a window has no extrema to anchor on.
        if (peaks is not None and span > 0.0
                and span >= 4.0 * finest.noise_sigma):
            if valleys is None:
                valleys = _prominent_peaks(
                    -finest.smooth, MIN_PROMINENCE_FRACTION * span, None)
            firsts = peaks[:1].tolist() + valleys[:1].tolist()
            if firsts:
                # Keep a partially-arrived pattern in view: anchor just
                # before the earliest extremum still standing.
                anchor = t0 + min(firsts) / fs - self.min_overlap_s
                quiet_from = min(quiet_from, anchor)
        new_start = max(self._scan_from_s or t0, min(quiet_from, t_end))
        self._scan_from_s = max(new_start, t_end - self.max_overlap_s)
