"""Signal traces: the RSS sample streams all algorithms consume.

Every figure in the paper is a plot of RSS versus time (often min-max
normalised).  :class:`SignalTrace` bundles samples with their sampling
rate and provenance metadata, and provides the handful of operations the
decoders and analysis code need: normalisation, slicing, resampling and
basic statistics.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

__all__ = ["SignalTrace"]


def _check_clock(sample_rate_hz: float, start_time_s: float = 0.0) -> None:
    """Reject a non-positive or non-finite sample rate and a non-finite
    start time (NaN slips past a bare ``<= 0`` check)."""
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0.0):
        raise ValueError(
            f"sample rate must be positive and finite, got {sample_rate_hz}")
    if not math.isfinite(start_time_s):
        raise ValueError(f"start time must be finite, got {start_time_s}")


@dataclass
class SignalTrace:
    """A uniformly sampled signal with metadata.

    Attributes:
        samples: the sample values (ADC codes or derived floats).
        sample_rate_hz: sampling frequency, > 0.
        start_time_s: timestamp of the first sample.
        meta: free-form provenance (scene parameters, receiver, etc.).
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError(f"trace must be 1-D, got shape {self.samples.shape}")
        _check_clock(self.sample_rate_hz, self.start_time_s)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        """Trace duration (time from first to one-past-last sample)."""
        return len(self.samples) / self.sample_rate_hz

    def times(self) -> np.ndarray:
        """Timestamps of every sample."""
        return (self.start_time_s
                + np.arange(len(self.samples)) / self.sample_rate_hz)

    def normalized(self) -> "SignalTrace":
        """Min-max normalised copy (the paper's 'Normalized RSS' axis).

        A constant trace normalises to all-zeros rather than dividing by
        zero.
        """
        lo = float(self.samples.min()) if len(self.samples) else 0.0
        hi = float(self.samples.max()) if len(self.samples) else 0.0
        span = hi - lo
        if span == 0.0:
            norm = np.zeros_like(self.samples)
        else:
            norm = (self.samples - lo) / span
        return SignalTrace(norm, self.sample_rate_hz, self.start_time_s,
                           dict(self.meta, normalized=True))

    def slice_time(self, t_start: float, t_end: float) -> "SignalTrace":
        """Sub-trace between two absolute times (inclusive of start).

        Raises:
            ValueError: if the window is empty or outside the trace.
        """
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        i0 = max(0, int(np.ceil((t_start - self.start_time_s)
                                * self.sample_rate_hz)))
        i1 = min(len(self.samples),
                 int(np.floor((t_end - self.start_time_s)
                              * self.sample_rate_hz)) + 1)
        if i0 >= i1:
            raise ValueError(
                f"window [{t_start}, {t_end}] s selects no samples")
        return SignalTrace(self.samples[i0:i1].copy(), self.sample_rate_hz,
                           self.start_time_s + i0 / self.sample_rate_hz,
                           dict(self.meta))

    @property
    def end_time_s(self) -> float:
        """Timestamp one sample-period past the last sample.

        The continuity point a well-formed next chunk starts at; equals
        ``start_time_s`` for an empty trace.
        """
        return self.start_time_s + len(self.samples) / self.sample_rate_hz

    def concat(self, other: "SignalTrace",
               time_tolerance_fraction: float = 0.5) -> "SignalTrace":
        """Append a later chunk of the same stream.

        Assembling a trace from recorded pieces (chunked captures,
        logged stream segments) with raw ``np.concatenate`` silently
        accepts chunks from different receivers or with holes between
        them.  ``concat`` validates what concatenation assumes:

        * both chunks share one sampling rate, and
        * ``other`` starts where this trace ends (within a fraction of
          one sample period — timestamps carry float round-off).

        Args:
            other: the next chunk; its metadata is merged over this
                trace's (later chunk wins conflicting keys).
            time_tolerance_fraction: allowed start-time slack as a
                fraction of the sample period, in [0, 1).

        Raises:
            ValueError: on a rate mismatch or a timestamp discontinuity.
        """
        if not 0.0 <= time_tolerance_fraction < 1.0:
            raise ValueError("time tolerance fraction must be in [0, 1)")
        if not math.isclose(other.sample_rate_hz, self.sample_rate_hz,
                            rel_tol=1e-9):
            raise ValueError(
                f"cannot concat traces with different sample rates: "
                f"{self.sample_rate_hz} Hz vs {other.sample_rate_hz} Hz")
        gap = other.start_time_s - self.end_time_s
        tolerance = time_tolerance_fraction / self.sample_rate_hz
        if abs(gap) > tolerance:
            raise ValueError(
                f"chunk is not contiguous: expected start at "
                f"{self.end_time_s:.6f} s, got {other.start_time_s:.6f} s "
                f"(gap {gap:+.6f} s exceeds {tolerance:.6f} s)")
        return SignalTrace(
            np.concatenate([self.samples, other.samples]),
            self.sample_rate_hz, self.start_time_s,
            dict(self.meta, **other.meta))

    @classmethod
    def from_chunks(cls, chunks: Sequence[np.ndarray], sample_rate_hz: float,
                    start_time_s: float = 0.0,
                    meta: dict[str, Any] | None = None) -> "SignalTrace":
        """Assemble one trace from consecutive raw sample chunks.

        Chunks are treated as back-to-back pieces of one uniformly
        sampled stream (no per-chunk timestamps to validate — use
        :meth:`concat` for timestamped pieces).  Empty chunks are
        allowed and contribute nothing.
        """
        _check_clock(sample_rate_hz, start_time_s)
        arrays = [np.asarray(c, dtype=float) for c in chunks]
        for i, arr in enumerate(arrays):
            if arr.ndim != 1:
                raise ValueError(
                    f"chunk {i} must be 1-D, got shape {arr.shape}")
        samples = (np.concatenate(arrays) if arrays
                   else np.empty(0, dtype=float))
        return cls(samples, sample_rate_hz, start_time_s,
                   dict(meta) if meta else {})

    def resampled(self, new_rate_hz: float) -> "SignalTrace":
        """Linear-interpolation resample to a new rate."""
        _check_clock(new_rate_hz)
        if len(self.samples) < 2:
            return SignalTrace(self.samples.copy(), new_rate_hz,
                               self.start_time_s, dict(self.meta))
        old_t = self.times()
        n_new = max(2, int(round(self.duration_s * new_rate_hz)))
        new_t = self.start_time_s + np.arange(n_new) / new_rate_hz
        new_t = new_t[new_t <= old_t[-1] + 1e-12]
        new_samples = np.interp(new_t, old_t, self.samples)
        return SignalTrace(new_samples, new_rate_hz, self.start_time_s,
                           dict(self.meta))

    def swing(self) -> float:
        """Peak-to-peak amplitude."""
        if len(self.samples) == 0:
            return 0.0
        return float(self.samples.max() - self.samples.min())

    def mean(self) -> float:
        """Mean level."""
        return float(self.samples.mean()) if len(self.samples) else 0.0

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        return (f"SignalTrace({len(self.samples)} samples @ "
                f"{self.sample_rate_hz:.0f} Hz, {self.duration_s:.2f} s, "
                f"range [{self.samples.min():.1f}, {self.samples.max():.1f}])"
                if len(self.samples) else "SignalTrace(empty)")
