"""Deterministic fault plans: corruption as declarative, hashable data.

The paper's system decodes passive tags from moving vehicles in hostile
conditions — occlusion, saturation, flaky receivers, lossy capture.  A
:class:`FaultPlan` describes such hostility as plain data riding on a
:class:`~repro.engine.ScenarioSpec`: which fault processes run, at what
rates, with what shapes.  Like the noise field, every fault draw is
seeded from the spec content, so

* the same spec (seed + plan) produces a **byte-identical corrupted
  run** on any worker count, host, or cache state, and
* an empty plan (or none at all) leaves every output byte-identical to
  a fault-free run.

The plan deliberately does *not* perturb the derived noise seed (the
same contract as ``stream_chunk``): faults corrupt the captured pass
and its transport, never the underlying physics, so a chaos sweep
measures degradation **on the same passes** the clean run decoded.

This module is dependency-free (no engine imports) so the spec layer
can import it without cycles; the injection machinery lives in
:mod:`repro.faults.inject`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["FaultPlan", "PROBABILITY_FIELDS", "RATE_FIELDS"]


#: Per-event probabilities in [0, 1]; scaled linearly by
#: :meth:`FaultPlan.scaled` and clipped back into range.
PROBABILITY_FIELDS = ("chunk_drop", "chunk_duplicate", "chunk_reorder",
                      "chunk_delay", "node_dropout", "node_intermittent")

#: Unbounded intensity knobs (events per second, clip depth, clock
#: skew); scaled linearly by :meth:`FaultPlan.scaled`.
RATE_FIELDS = ("burst_rate_hz", "dropout_rate_hz", "saturate_fraction",
               "clock_drift_ppm")


@dataclass(frozen=True)
class FaultPlan:
    """One scenario's fault processes, as data.

    Stream-layer faults (chunk transport into the streaming runtime):

    Attributes:
        chunk_drop: probability each ingest chunk is lost in transport.
        chunk_duplicate: probability each surviving chunk arrives twice.
        chunk_reorder: probability each adjacent chunk pair is swapped.
        chunk_delay: probability a chunk is held back and delivered
            ``delay_chunks`` positions late.
        delay_chunks: how many positions a delayed chunk slips.

    Signal-layer faults (the captured :class:`SignalTrace` itself):

        burst_rate_hz: expected burst-noise events per second of trace.
        burst_length_s: duration of each noise burst.
        burst_gain: burst noise standard deviation as a fraction of the
            trace's peak-to-peak swing.
        saturate_fraction: sensor saturation — clip the top fraction of
            the trace's dynamic range (0 = off, 0.3 = the top 30% of
            the swing flattens to the clip level).
        dropout_rate_hz: expected sample-dropout events per second; a
            dropout holds the last good value (a stalled sensor read).
        dropout_length_s: duration of each dropout.
        clock_drift_ppm: receiver clock skew in parts per million — the
            trace is resampled as if the ADC clock ran fast (positive)
            or slow (negative) by this much.

    Node-layer faults (multi-receiver arrays, ``n_receivers > 1``):

        node_dropout: probability each receiver node is silent for the
            pass (no capture, no detection — the fusion layer simply
            sees fewer reports).
        node_intermittent: probability each surviving node captures
            only an intermittent window of the pass.
        intermittent_fraction: fraction of the pass an intermittent
            node retains (a contiguous window at a drawn offset).

    Execution pathology (chaos harness for runner timeouts):

        exec_sleep_s: wall-clock stall injected at the start of the
            scenario's execution — the deterministic "stuck worker"
            used to exercise :class:`~repro.engine.BatchRunner`'s
            per-scenario timeout and quarantine.  Does not change the
            decode; capped at 600 s.
    """

    chunk_drop: float = 0.0
    chunk_duplicate: float = 0.0
    chunk_reorder: float = 0.0
    chunk_delay: float = 0.0
    delay_chunks: int = 2
    burst_rate_hz: float = 0.0
    burst_length_s: float = 0.02
    burst_gain: float = 1.0
    saturate_fraction: float = 0.0
    dropout_rate_hz: float = 0.0
    dropout_length_s: float = 0.01
    clock_drift_ppm: float = 0.0
    node_dropout: float = 0.0
    node_intermittent: float = 0.0
    intermittent_fraction: float = 0.5
    exec_sleep_s: float = 0.0

    def __post_init__(self) -> None:
        # NaN slips through every ordered comparison below, and inf
        # through the one-sided ones, so non-finite values go first.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {value}")
        for name in ("burst_rate_hz", "dropout_rate_hz"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, "
                                 f"got {getattr(self, name)}")
        for name in ("burst_length_s", "dropout_length_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, "
                                 f"got {getattr(self, name)}")
        if self.burst_gain < 0.0:
            raise ValueError(
                f"burst_gain must be >= 0, got {self.burst_gain}")
        if not 0.0 <= self.saturate_fraction < 1.0:
            raise ValueError(f"saturate_fraction must be in [0, 1), "
                             f"got {self.saturate_fraction}")
        if abs(self.clock_drift_ppm) > 200_000.0:
            raise ValueError(f"clock_drift_ppm must stay within "
                             f"+/-200000, got {self.clock_drift_ppm}")
        if not isinstance(self.delay_chunks, int) or self.delay_chunks < 1:
            raise ValueError(f"delay_chunks must be an integer >= 1, "
                             f"got {self.delay_chunks!r}")
        if not 0.0 < self.intermittent_fraction <= 1.0:
            raise ValueError(f"intermittent_fraction must be in (0, 1], "
                             f"got {self.intermittent_fraction}")
        if not 0.0 <= self.exec_sleep_s <= 600.0:
            raise ValueError(f"exec_sleep_s must be in [0, 600], "
                             f"got {self.exec_sleep_s}")

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        """Whether every fault process is off (injection is a no-op).

        Shape parameters (lengths, gains, fractions, delay span) do not
        count: without a rate or probability driving them they never
        fire.
        """
        return (all(getattr(self, n) == 0.0 for n in PROBABILITY_FIELDS)
                and all(getattr(self, n) == 0.0 for n in RATE_FIELDS)
                and self.exec_sleep_s == 0.0)

    @property
    def streams(self) -> bool:
        """Whether any stream-layer (chunk transport) fault is active."""
        return any(getattr(self, n) > 0.0 for n in
                   ("chunk_drop", "chunk_duplicate", "chunk_reorder",
                    "chunk_delay"))

    @property
    def signals(self) -> bool:
        """Whether any signal-layer fault is active."""
        return (self.burst_rate_hz > 0.0 or self.dropout_rate_hz > 0.0
                or self.saturate_fraction > 0.0
                or self.clock_drift_ppm != 0.0)

    @property
    def nodes(self) -> bool:
        """Whether any node-layer fault is active."""
        return self.node_dropout > 0.0 or self.node_intermittent > 0.0

    # ------------------------------------------------------------------
    def scaled(self, intensity: float) -> "FaultPlan":
        """This plan with every rate/probability scaled by ``intensity``.

        The chaos sweep's one knob: ``plan.scaled(0)`` is fault-free,
        ``plan.scaled(1)`` is the plan itself, and intermediate values
        interpolate every active process linearly.  Probabilities and
        the saturation depth are clipped back into their valid ranges;
        shape parameters (burst length, dropout length, delay span,
        ``exec_sleep_s``) are left alone.
        """
        if not (math.isfinite(intensity) and intensity >= 0.0):
            raise ValueError(
                f"intensity must be finite and >= 0, got {intensity}")
        updates: dict[str, Any] = {}
        for name in PROBABILITY_FIELDS:
            updates[name] = min(1.0, getattr(self, name) * intensity)
        for name in ("burst_rate_hz", "dropout_rate_hz"):
            updates[name] = getattr(self, name) * intensity
        updates["saturate_fraction"] = min(
            0.999, self.saturate_fraction * intensity)
        updates["clock_drift_ppm"] = self.clock_drift_ppm * intensity
        return dataclasses.replace(self, **updates)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe)."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-plan fields: {sorted(unknown)}")
        return cls(**dict(data))

    def canonical_json(self) -> str:
        """Stable JSON encoding (feeds the fault seed derivation)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
