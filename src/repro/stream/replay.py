"""Replaying captured traces as live chunk feeds.

The bridge between the offline world (a :class:`SignalTrace` captured
by the channel simulator, or recorded from hardware) and the streaming
runtime: split a trace into chunks, feed them through a
:class:`StreamDecoder`, and summarize what the online path measured.
Everything here is engine-agnostic — the execution engine imports this
module, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from ..channel.trace import SignalTrace
from .decode import DecodeEvent, StreamDecoder

__all__ = ["iter_chunks", "replay_trace", "StreamReplay"]


def iter_chunks(samples: np.ndarray,
                chunk_size: int) -> Iterator[np.ndarray]:
    """Split a sample array into consecutive chunks of ``chunk_size``.

    The final chunk carries the remainder.  Chunks are views — cheap,
    but consumers must copy before mutating.  A lossy transport is
    modelled by a :class:`~repro.faults.FaultPlan` (``chunk_*``
    fields), not here.

    Raises:
        ValueError: for ``chunk_size < 1``.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    arr = np.asarray(samples)
    return (arr[start:start + chunk_size]
            for start in range(0, len(arr), chunk_size))


@dataclass
class StreamReplay:
    """Outcome of replaying one trace through the online runtime.

    Attributes:
        decoder: the flushed :class:`StreamDecoder` (events, result,
            normalizer state all live on it).
        n_chunks: chunks fed.
    """

    decoder: StreamDecoder
    n_chunks: int

    @property
    def events(self) -> list[DecodeEvent]:
        return self.decoder.events

    @property
    def verdict(self) -> DecodeEvent:
        """The verdict event (always present after a replay)."""
        return self.decoder.event("verdict")

    def latency(self, kind: str) -> float | None:
        """Sample-clock latency of one event kind, or None."""
        return self.decoder.latency(kind)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe event/latency summary."""
        return {
            "n_chunks": self.n_chunks,
            "events": [e.to_dict() for e in self.events],
            "onset_latency_s": self.latency("onset"),
            "first_bit_latency_s": self.latency("first_bit"),
            "verdict_latency_s": self.decoder.verdict_latency_s,
        }


def replay_trace(trace: SignalTrace, chunk_size: int,
                 n_data_symbols: int | None = None,
                 decoder: object | None = None,
                 check_stride_s: float | None = None,
                 chunks: list[np.ndarray] | None = None,
                 stage_trace: Any | None = None) -> StreamReplay:
    """Feed one captured trace chunk-by-chunk and flush.

    The returned replay's verdict is byte-identical to decoding the
    assembled stream offline with the same ``decoder`` — the streaming
    parity guarantee.  Without a ``chunks`` override the assembled
    stream *is* the trace, so the verdict matches the trace's offline
    decode.

    Args:
        trace: the captured pass (supplies sample rate and timebase).
        chunk_size: samples per chunk, >= 1.
        n_data_symbols: expected data-field length, when known.
        decoder: offline decoder for the verdict (default adaptive).
        check_stride_s: acquisition re-check stride override.
        chunks: optional pre-chunked feed replacing the trace's own
            samples — the fault layer's entry point for corrupted
            transport (dropped/duplicated/reordered chunks).  The
            verdict then describes the corrupted stream, by design.
        stage_trace: optional ``StageTrace`` forwarded to the stream
            decoder for per-stage attribution (telemetry only).
    """
    stream = StreamDecoder(trace.sample_rate_hz, trace.start_time_s,
                           n_data_symbols=n_data_symbols, decoder=decoder,
                           check_stride_s=check_stride_s,
                           stage_trace=stage_trace)
    feed = chunks if chunks is not None else iter_chunks(trace.samples,
                                                         chunk_size)
    n_chunks = 0
    for chunk in feed:
        stream.push(chunk)
        n_chunks += 1
    stream.flush()
    return StreamReplay(decoder=stream, n_chunks=n_chunks)
