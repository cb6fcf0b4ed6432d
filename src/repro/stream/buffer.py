"""Chunked sample ingestion: the stream runtime's ring buffer.

An online receiver never holds "the trace" — it holds whatever of the
stream it has not discarded yet.  :class:`StreamBuffer` accepts
arbitrary-sized sample chunks, tracks the absolute sample clock, and
exposes time-indexed windows of the retained history as **views** (no
copy), which is what lets the incremental preamble detector re-scan a
suffix thousands of times without quadratic copying.

Bounded mode (``max_samples``) drops the oldest samples once capacity
is exceeded — the behaviour of a real fixed-memory receiver — and
counts what it dropped so consumers can tell a complete history from a
windowed one.  Storage uses the classic double-capacity sliding array:
appends go into a ``2 * max_samples`` backing array and the live region
is compacted to the front when the backing fills, so every exposed
window stays a contiguous zero-copy slice (a wrapped ring cannot offer
that) at amortized O(1) per sample.
"""

from __future__ import annotations

import numpy as np

from ..channel.trace import SignalTrace, _check_clock

__all__ = ["StreamBuffer"]


class StreamBuffer:
    """Time-indexed ring buffer over a uniformly sampled stream.

    Attributes:
        sample_rate_hz: the stream's sampling rate, > 0.
        start_time_s: timestamp of the first sample ever appended.
        max_samples: retained-history bound; None keeps everything.
    """

    def __init__(self, sample_rate_hz: float, start_time_s: float = 0.0,
                 max_samples: int | None = None) -> None:
        _check_clock(sample_rate_hz, start_time_s)
        if max_samples is not None and max_samples < 1:
            raise ValueError(
                f"max_samples must be >= 1 or None, got {max_samples}")
        self.sample_rate_hz = float(sample_rate_hz)
        self.start_time_s = float(start_time_s)
        self.max_samples = max_samples
        initial = 1024 if max_samples is None else 2 * max_samples
        self._data = np.empty(initial, dtype=float)
        self._lo = 0            # index of the oldest retained sample
        self._hi = 0            # one past the newest sample
        self._appended = 0      # total samples ever appended
        self._dropped = 0       # samples evicted by the capacity bound

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of retained samples."""
        return self._hi - self._lo

    @property
    def n_appended(self) -> int:
        """Total samples ever pushed into the buffer."""
        return self._appended

    @property
    def n_dropped(self) -> int:
        """Samples evicted by the ``max_samples`` bound."""
        return self._dropped

    @property
    def first_index(self) -> int:
        """Absolute sample index of the oldest retained sample."""
        return self._appended - len(self)

    @property
    def first_time_s(self) -> float:
        """Timestamp of the oldest retained sample."""
        return self.start_time_s + self.first_index / self.sample_rate_hz

    @property
    def end_time_s(self) -> float:
        """Timestamp one sample-period past the newest sample.

        Advances monotonically with every append — the stream clock the
        decode runtime stamps its events with.
        """
        return self.start_time_s + self._appended / self.sample_rate_hz

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, chunk: np.ndarray) -> None:
        """Append one chunk of samples (any size, including empty).

        Raises:
            ValueError: on a non-1-D chunk.
        """
        arr = np.asarray(chunk, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"chunk must be 1-D, got shape {arr.shape}")
        n = len(arr)
        if n == 0:
            return
        if self.max_samples is not None and n >= self.max_samples:
            # The chunk alone overflows the bound: keep only its tail.
            self._dropped += self._hi - self._lo + n - self.max_samples
            self._data[:self.max_samples] = arr[n - self.max_samples:]
            self._lo, self._hi = 0, self.max_samples
            self._appended += n
            return
        if self._hi + n > len(self._data):
            self._make_room(n)
        self._data[self._hi:self._hi + n] = arr
        self._hi += n
        self._appended += n
        if self.max_samples is not None and len(self) > self.max_samples:
            evict = len(self) - self.max_samples
            self._lo += evict
            self._dropped += evict

    def _make_room(self, n: int) -> None:
        """Compact (bounded) or grow (unbounded) the backing array."""
        live = self._data[self._lo:self._hi]
        if self.max_samples is None:
            new_size = max(2 * len(self._data), len(live) + n)
            grown = np.empty(new_size, dtype=float)
            grown[:len(live)] = live
            self._data = grown
        else:
            # Slide the live region to the front of the fixed backing.
            self._data[:len(live)] = live
        self._hi = len(live)
        self._lo = 0

    # ------------------------------------------------------------------
    # Time-indexed access
    # ------------------------------------------------------------------
    def _index_of(self, t: float) -> int:
        """Absolute sample index whose timestamp is >= ``t``."""
        return int(np.ceil((t - self.start_time_s) * self.sample_rate_hz
                           - 1e-9))

    def window(self, t_start: float, t_end: float) -> np.ndarray:
        """Retained samples with timestamps in ``[t_start, t_end)``.

        Returns a zero-copy **view** into the buffer — valid until the
        next :meth:`append`; copy before storing.  Requesting time
        before the retained history is clipped (the samples are gone);
        time past the stream end is clipped to what has arrived.
        """
        view, _ = self.window_with_time(t_start, t_end)
        return view

    def window_with_time(self, t_start: float,
                         t_end: float) -> tuple[np.ndarray, float]:
        """Like :meth:`window`, plus the exact timestamp of the view's
        first sample (needed to build correctly anchored sub-traces)."""
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        i0 = max(self._index_of(t_start), self.first_index)
        i1 = min(self._index_of(t_end), self._appended)
        if i1 <= i0:
            return self._data[self._hi:self._hi], self.time_of(
                max(i0, self.first_index))
        offset = self._lo - self.first_index
        return self._data[offset + i0:offset + i1], self.time_of(i0)

    def suffix(self, t_start: float) -> np.ndarray:
        """Zero-copy view from ``t_start`` to the stream end."""
        return self.window(t_start, self.end_time_s + 1.0)

    def time_of(self, absolute_index: int) -> float:
        """Timestamp of an absolute sample index."""
        return self.start_time_s + absolute_index / self.sample_rate_hz

    def to_trace(self, meta: dict | None = None) -> SignalTrace:
        """The retained history as a :class:`SignalTrace` (copied).

        The trace's ``start_time_s`` is the oldest *retained* sample's
        timestamp, so a bounded buffer yields a correctly shifted
        window, and ``meta`` records how much history was dropped.
        """
        info = dict(meta) if meta else {}
        if self._dropped:
            info["stream_dropped_samples"] = self._dropped
        return SignalTrace(self._data[self._lo:self._hi].copy(),
                           self.sample_rate_hz, self.first_time_s, info)
