"""Deterministic fault injection over traces, chunk feeds and nodes.

Every injector takes an explicit :class:`numpy.random.Generator` built
by :func:`fault_rng` from the spec's resolved noise seed, the plan
content, and a *role* string, so

* each fault layer (signal, stream, per-node) owns an independent
  stream of draws — enabling one layer never shifts another's draws;
* the same spec reproduces the same corruption bytes anywhere (serial,
  worker pools, cold or warm cache);
* an empty plan consumes **zero** draws and returns its input
  untouched, keeping fault-free runs byte-identical to pre-fault code.

Injectors return a :class:`FaultLog` of what actually fired, which the
executor folds into ``RunRecord.fault_events`` for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from ..channel.trace import SignalTrace
from ..engine.spec import derive_seed
from .plan import FaultPlan

__all__ = ["FaultLog", "fault_rng", "apply_signal_faults",
           "perturb_chunks", "node_fault_roll", "intermittent_window"]


def fault_rng(role: str, spec_seed: int, plan: FaultPlan) -> np.random.Generator:
    """An independent, deterministic generator for one fault layer.

    Args:
        role: which layer draws from it (``"signal"``, ``"stream"``,
            ``"node:3"`` ...) — distinct roles get well-separated
            streams.
        spec_seed: the resolved scenario's noise seed.
        plan: the fault plan (its content perturbs the stream, so
            changing any knob redraws everything — no accidental
            correlation between a 10% and an 11% plan).
    """
    token = f"fault:{role}:{spec_seed}:{plan.canonical_json()}"
    return np.random.Generator(np.random.PCG64(derive_seed(token)))


@dataclass
class FaultLog:
    """What one injection pass actually did.

    Attributes mirror the fault processes; ``counts()`` flattens the
    nonzero ones into the JSON-safe dict records carry.
    """

    chunks_dropped: int = 0
    chunks_duplicated: int = 0
    chunks_delayed: int = 0
    chunks_reordered: int = 0
    noise_bursts: int = 0
    dropouts: int = 0
    samples_saturated: int = 0
    clock_drift: int = 0
    nodes_dropped: int = 0
    nodes_intermittent: int = 0

    def merge(self, other: "FaultLog") -> "FaultLog":
        """Accumulate another log into this one (returns self)."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        return self

    def counts(self) -> dict[str, int]:
        """Nonzero event counts — empty for a no-op injection, so
        fault-free records keep an empty ``fault_events`` dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name)}

    @property
    def total(self) -> int:
        """Total fault events across every process."""
        return sum(getattr(self, f.name) for f in fields(self))


# ----------------------------------------------------------------------
# Signal-layer faults
# ----------------------------------------------------------------------

def _apply_clock_drift(x: np.ndarray, rate_hz: float,
                       ppm: float) -> np.ndarray:
    """Resample as if the ADC clock ran fast/slow by ``ppm``.

    Sample ``i`` is read at true time ``i * (1 + d) / rate``: a fast
    clock (positive drift) sweeps past the true waveform, compressing
    it; the trace keeps its nominal rate and length, as a real logger
    with a skewed crystal would.
    """
    n = len(x)
    if n < 2:
        return x
    idx = np.arange(n, dtype=float)
    src = np.clip(idx * (1.0 + ppm * 1e-6), 0.0, n - 1.0)
    return np.interp(src, idx, x)


def _event_windows(rng: np.random.Generator, n: int, rate_hz: float,
                   length_s: float, sample_rate_hz: float,
                   ) -> list[tuple[int, int]]:
    """Poisson-count event windows as (start, stop) sample slices."""
    duration_s = n / sample_rate_hz
    count = int(rng.poisson(rate_hz * duration_s))
    length = max(1, int(round(length_s * sample_rate_hz)))
    windows = []
    for _ in range(count):
        start = int(rng.integers(0, n))
        windows.append((start, min(n, start + length)))
    return windows


def apply_signal_faults(trace: SignalTrace, plan: FaultPlan,
                        rng: np.random.Generator,
                        ) -> tuple[SignalTrace, FaultLog]:
    """Corrupt one captured trace per the plan's signal-layer knobs.

    Order models the physical chain: clock drift (the ADC timebase),
    sample dropouts (stalled reads hold the last good value), burst
    noise (interference adds on top), then sensor saturation (the
    front end clips last).  Each stage draws only when active, so an
    empty plan is a byte-for-byte no-op.
    """
    log = FaultLog()
    if not plan.signals:
        return trace, log
    x = np.array(trace.samples, dtype=float, copy=True)
    n = len(x)
    if n == 0:
        return trace, log
    rate = trace.sample_rate_hz

    if plan.clock_drift_ppm != 0.0:
        x = _apply_clock_drift(x, rate, plan.clock_drift_ppm)
        log.clock_drift = 1

    if plan.dropout_rate_hz > 0.0:
        for start, stop in _event_windows(rng, n, plan.dropout_rate_hz,
                                          plan.dropout_length_s, rate):
            x[start:stop] = x[start - 1] if start > 0 else x[0]
            log.dropouts += 1

    if plan.burst_rate_hz > 0.0:
        swing = float(x.max() - x.min())
        sigma = plan.burst_gain * (swing if swing > 0.0 else 1.0)
        for start, stop in _event_windows(rng, n, plan.burst_rate_hz,
                                          plan.burst_length_s, rate):
            x[start:stop] += rng.normal(0.0, sigma, stop - start)
            log.noise_bursts += 1

    if plan.saturate_fraction > 0.0:
        lo, hi = float(x.min()), float(x.max())
        if hi > lo:
            clip_level = lo + (1.0 - plan.saturate_fraction) * (hi - lo)
            saturated = int(np.count_nonzero(x > clip_level))
            if saturated:
                np.clip(x, None, clip_level, out=x)
                log.samples_saturated = saturated

    faulted = SignalTrace(x, trace.sample_rate_hz, trace.start_time_s,
                          dict(trace.meta, fault_injected=True))
    return faulted, log


# ----------------------------------------------------------------------
# Stream-layer faults
# ----------------------------------------------------------------------

def perturb_chunks(chunks: Iterable[np.ndarray], plan: FaultPlan,
                   rng: np.random.Generator,
                   ) -> tuple[list[np.ndarray], FaultLog]:
    """Corrupt a chunk feed's transport: drop, duplicate, delay, swap.

    Stages run in a fixed order (loss -> duplication -> delay ->
    adjacent reorder), each drawing per chunk only when its probability
    is nonzero, so the perturbation is deterministic for a given rng
    and an all-zero plan returns the input chunks unchanged (same
    objects, no copies).
    """
    out = [np.asarray(c) for c in chunks]
    log = FaultLog()
    if not plan.streams:
        return out, log

    if plan.chunk_drop > 0.0 or plan.chunk_duplicate > 0.0:
        kept: list[np.ndarray] = []
        for chunk in out:
            if plan.chunk_drop > 0.0 and rng.random() < plan.chunk_drop:
                log.chunks_dropped += 1
                continue
            kept.append(chunk)
            if (plan.chunk_duplicate > 0.0
                    and rng.random() < plan.chunk_duplicate):
                kept.append(chunk)
                log.chunks_duplicated += 1
        out = kept

    if plan.chunk_delay > 0.0 and len(out) > 1:
        # A delayed chunk slips ``delay_chunks`` positions; the stable
        # sort keeps everything else in arrival order.
        keys = []
        for i in range(len(out)):
            delayed = rng.random() < plan.chunk_delay
            if delayed:
                log.chunks_delayed += 1
            keys.append(i + (plan.delay_chunks if delayed else 0))
        order = sorted(range(len(out)), key=lambda i: (keys[i], i))
        out = [out[i] for i in order]

    if plan.chunk_reorder > 0.0:
        i = 0
        while i + 1 < len(out):
            if rng.random() < plan.chunk_reorder:
                out[i], out[i + 1] = out[i + 1], out[i]
                log.chunks_reordered += 1
                i += 2
            else:
                i += 1

    return out, log


# ----------------------------------------------------------------------
# Node-layer faults
# ----------------------------------------------------------------------

def node_fault_roll(plan: FaultPlan, rng: np.random.Generator) -> str:
    """One receiver node's fate for this pass.

    Returns ``"dropped"`` (silent node), ``"intermittent"`` (partial
    capture) or ``"ok"``.  Dropout is rolled first — a dead node cannot
    also be intermittent — and each roll happens only when its
    probability is nonzero, keeping draw streams stable as knobs are
    enabled independently.
    """
    if plan.node_dropout > 0.0 and rng.random() < plan.node_dropout:
        return "dropped"
    if (plan.node_intermittent > 0.0
            and rng.random() < plan.node_intermittent):
        return "intermittent"
    return "ok"


def intermittent_window(trace: SignalTrace, plan: FaultPlan,
                        rng: np.random.Generator) -> SignalTrace:
    """The contiguous partial capture an intermittent node retains.

    Keeps ``intermittent_fraction`` of the pass (at least 8 samples) at
    a uniformly drawn offset, with the window's true timestamps — the
    fusion layer sees a correctly anchored but incomplete report.
    """
    n = len(trace.samples)
    keep = min(n, max(8, int(round(plan.intermittent_fraction * n))))
    if keep >= n:
        return trace
    offset = int(rng.integers(0, n - keep + 1))
    return SignalTrace(
        np.array(trace.samples[offset:offset + keep], copy=True),
        trace.sample_rate_hz,
        trace.start_time_s + offset / trace.sample_rate_hz,
        dict(trace.meta, fault_intermittent=True))
