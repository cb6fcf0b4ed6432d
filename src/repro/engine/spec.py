"""Declarative scenario descriptions and grid expansion.

A :class:`ScenarioSpec` captures everything the simulation stack needs
to run one pass — source, geometry, tag payload, receiver chain, motion,
noise and decoder — as plain data.  Plain data means scenarios can be
hashed (for the result cache), pickled (for the worker pool), serialized
to JSON (for the CLI) and fanned out over parameter grids without
touching any simulator object.

:func:`expand_grid` is the matrix expander: it takes a template spec and
a mapping of field name -> values and produces the Cartesian product as
concrete specs, in deterministic order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

from ..faults.plan import FaultPlan

__all__ = ["ScenarioSpec", "SpecIdentity", "GridSpec", "derive_seed",
           "expand_grid", "grid_size", "MOTIONS", "TOPOLOGIES"]


def derive_seed(token: str) -> int:
    """Deterministic 31-bit seed from arbitrary token text.

    The one derivation rule (blake2b, 4-byte digest, modulo
    ``2**31 - 1``) shared by per-spec seeds and per-receiver-node
    seeds, so the convention cannot silently diverge.
    """
    digest = hashlib.blake2b(token.encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") % (2**31 - 1)


#: Recognised ambient sources.
SOURCES = ("led_lamp", "sun", "fluorescent")

#: Recognised detector families.
DETECTORS = ("pd", "led")

#: Photodiode gain settings (mirrors :class:`repro.hardware.PdGain`).
PD_GAINS = ("G1", "G2", "G3")

#: Recognised decoding strategies.
DECODERS = ("adaptive", "two_phase")

#: Vehicle profiles a tag can ride on (``None`` = bare tag).
CARS = ("volvo_v40", "bmw_3_series")

#: Recognised motion profiles (see :mod:`repro.channel.mobility`).
MOTIONS = ("constant", "speed_doubling", "speed_jitter")

#: Receiver-network connectivity topologies (``n_receivers > 1``):
#: ``full`` links every pair, ``chain`` only consecutive nodes, and
#: ``partitioned`` splits the array into two disjoint full meshes.
TOPOLOGIES = ("full", "chain", "partitioned")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described channel scenario, as data.

    Attributes:
        bits: payload bit string (e.g. ``"10"``).
        symbol_width_m: physical strip width of one symbol.
        receiver_height_m: receiver height above the tag plane.
        speed_mps: constant pass speed of the moving object.
        source: ambient source kind (``led_lamp``/``sun``/``fluorescent``).
        lamp_intensity_cd: LED lamp on-axis intensity (``led_lamp``).
        lamp_offset_m: horizontal lamp-receiver distance (``led_lamp``).
        ground_lux: scene noise floor (``sun``/``fluorescent``).
        fluorescent_height_m: luminaire height (``fluorescent``).
        detector: ``pd`` (OPT101) or ``led`` (RX-LED).
        pd_gain: OPT101 gain setting (``pd`` only).
        cap: mount the paper's FoV cap on the detector.
        ground: material name of the uncovered plane.
        car: carry the tag on this vehicle's roof (``None``: bare tag).
        dirt: tag degradation factor in [0, 1] (bare tags only).
        visibility_m: meteorological visibility; ``None`` = clear air.
        start_position_m: leading-edge start; ``None`` picks the
            standard upstream margin ``-(0.6 h + 3 w)``.
        sample_rate_hz: RSS sampling rate; ``None`` targets ~40 samples
            per symbol clamped to [200, 2000] Hz.
        motion: motion profile — ``constant`` speed, ``speed_doubling``
            (the Fig. 8 distortion: speed doubles when the packet
            midpoint passes the receiver) or ``speed_jitter`` (smooth
            random wander around the nominal speed).
        motion_param: profile parameter; for ``speed_jitter`` the
            relative speed deviation in [0, 0.9], must stay 0.0
            otherwise.
        decoder: ``adaptive`` thresholds or the ``two_phase`` car
            decoder (long preamble first).
        threshold_rule: adaptive-decoder thresholding variant.
        n_receivers: number of deployed receiver nodes observing the
            pass.  1 (default) is the single-receiver pipeline; above 1
            the engine builds a :class:`repro.net.ReceiverNetwork` of
            nodes spaced along the track, each capturing its own trace
            of the same pass, and records fused/tracked verdicts (the
            Section 6 networked-receivers setup).
        receiver_spacing_m: gap between consecutive nodes along the
            motion axis (``n_receivers > 1``).
        topology: connectivity between nodes — ``full``, ``chain`` or
            ``partitioned`` (two disjoint full meshes).
        stream_chunk: samples per ingest chunk when the scenario runs
            through the online streaming runtime (:mod:`repro.stream`).
            0 (default) decodes offline; > 0 replays the captured pass
            chunk-by-chunk through a streaming decoder and records
            decode latencies on the run record.  The final verdict is
            byte-identical to the offline decode either way (the
            streaming parity guarantee), and the physical pass is
            unchanged, so streaming fields do **not** perturb the
            derived noise seed — only the cache identity.
        stream_feed_hz: intended live feed pacing in chunks/second for
            session replay (0 = as fast as possible).  Pacing changes
            wall-clock behaviour only, never the decode, so the batch
            executor ignores it; the session layer
            (``repro-engine stream``) honours it.  Independent of
            ``stream_chunk``: the session layer chunks with its own
            ``--chunk`` flag, so pacing is valid on its own.
        include_noise: disable for noiseless optical truth.
        seed: noise seed; ``None`` derives a deterministic seed from the
            spec content, so every grid point gets its own stable seed.
        fault_plan: optional :class:`~repro.faults.FaultPlan` describing
            deterministic corruption injected into the captured pass,
            its chunk transport, and its receiver nodes.  ``None``
            (default) runs fault-free and serializes identically to a
            spec predating the field.  Like the streaming knobs, the
            plan does **not** perturb the derived noise seed — faults
            corrupt the capture of the same physical pass — but it does
            change the cache identity.
    """

    bits: str = "10"
    symbol_width_m: float = 0.05
    receiver_height_m: float = 0.2
    speed_mps: float = 0.08
    source: str = "led_lamp"
    lamp_intensity_cd: float = 2.0
    lamp_offset_m: float = 0.12
    ground_lux: float = 6200.0
    fluorescent_height_m: float = 2.3
    detector: str = "pd"
    pd_gain: str = "G1"
    cap: bool = True
    ground: str = "black_paper_ground"
    car: str | None = None
    dirt: float = 0.0
    visibility_m: float | None = None
    start_position_m: float | None = None
    sample_rate_hz: float | None = None
    motion: str = "constant"
    motion_param: float = 0.0
    decoder: str = "adaptive"
    threshold_rule: str = "midpoint"
    n_receivers: int = 1
    receiver_spacing_m: float = 0.6
    topology: str = "full"
    stream_chunk: int = 0
    stream_feed_hz: float = 0.0
    include_noise: bool = True
    seed: int | None = None
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if isinstance(self.fault_plan, Mapping):
            object.__setattr__(self, "fault_plan",
                               FaultPlan.from_dict(self.fault_plan))
        if self.fault_plan is not None and not isinstance(self.fault_plan,
                                                          FaultPlan):
            raise ValueError(f"fault_plan must be a FaultPlan, a mapping or "
                             f"None, got {self.fault_plan!r}")
        if self.fault_plan is not None and self.fault_plan.empty:
            # An all-off plan is behaviourally identical to no plan;
            # normalizing keeps the content hash (and therefore the
            # cache key and record bytes) identical too — the "empty
            # plan == today's output" contract, made literal.
            object.__setattr__(self, "fault_plan", None)
        if not self.bits or any(c not in "01" for c in self.bits):
            raise ValueError(f"bits must be a non-empty 0/1 string, "
                             f"got {self.bits!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if (f.type in ("float", "float | None") and value is not None
                    and not math.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("symbol_width_m", "receiver_height_m", "speed_mps",
                     "lamp_intensity_cd", "ground_lux",
                     "fluorescent_height_m"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, "
                                 f"got {getattr(self, name)}")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, "
                             f"got {self.source!r}")
        if self.detector not in DETECTORS:
            raise ValueError(f"detector must be one of {DETECTORS}, "
                             f"got {self.detector!r}")
        if self.pd_gain not in PD_GAINS:
            raise ValueError(f"pd_gain must be one of {PD_GAINS}, "
                             f"got {self.pd_gain!r}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, "
                             f"got {self.decoder!r}")
        if self.car is not None and self.car not in CARS:
            raise ValueError(f"car must be one of {CARS} or None, "
                             f"got {self.car!r}")
        if not 0.0 <= self.dirt <= 1.0:
            raise ValueError(f"dirt must be in [0, 1], got {self.dirt}")
        if self.dirt > 0.0 and self.car is not None:
            raise ValueError("dirt degradation applies to bare tags only")
        if self.visibility_m is not None and self.visibility_m <= 0.0:
            raise ValueError("visibility must be positive")
        if self.sample_rate_hz is not None and self.sample_rate_hz <= 0.0:
            raise ValueError("sample rate must be positive")
        if self.motion not in MOTIONS:
            raise ValueError(f"motion must be one of {MOTIONS}, "
                             f"got {self.motion!r}")
        if self.motion == "speed_jitter":
            if not 0.0 <= self.motion_param <= 0.9:
                raise ValueError("speed_jitter deviation must be in "
                                 f"[0, 0.9], got {self.motion_param}")
        elif self.motion_param != 0.0:
            raise ValueError(f"motion_param applies to speed_jitter only, "
                             f"got {self.motion_param} for {self.motion!r}")
        if not isinstance(self.n_receivers, int) or self.n_receivers < 1:
            raise ValueError(f"n_receivers must be an integer >= 1, "
                             f"got {self.n_receivers!r}")
        if self.receiver_spacing_m <= 0.0:
            raise ValueError(f"receiver_spacing_m must be positive, "
                             f"got {self.receiver_spacing_m}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, "
                             f"got {self.topology!r}")
        if not isinstance(self.stream_chunk, int) or self.stream_chunk < 0:
            raise ValueError(f"stream_chunk must be an integer >= 0, "
                             f"got {self.stream_chunk!r}")
        if self.stream_feed_hz < 0.0:
            raise ValueError(f"stream_feed_hz must be >= 0, "
                             f"got {self.stream_feed_hz}")
        if self.stream_chunk > 0 and self.n_receivers > 1:
            raise ValueError(
                "streaming replay (stream_chunk > 0) applies to "
                "single-receiver scenarios; multi-receiver streams go "
                "through the session layer (repro-engine stream)")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def auto_sample_rate_hz(self) -> float:
        """~40 samples per symbol, clamped to [200, 2000] Hz."""
        rate = 40.0 * self.speed_mps / self.symbol_width_m
        return float(min(2000.0, max(200.0, rate)))

    def auto_start_position_m(self) -> float:
        """Standard upstream start: quiet baseline before the packet."""
        return -(0.6 * self.receiver_height_m + 3.0 * self.symbol_width_m)

    def resolve(self) -> "ScenarioSpec":
        """Fill every ``None``/auto field with its concrete value.

        Resolution is idempotent and happens before hashing, so a
        template with ``sample_rate_hz=None`` and one spelling the same
        rate explicitly share a cache entry.
        """
        updates: dict[str, Any] = {}
        if self.sample_rate_hz is None:
            updates["sample_rate_hz"] = self.auto_sample_rate_hz()
        if self.start_position_m is None:
            updates["start_position_m"] = self.auto_start_position_m()
        spec = self.replace(**updates) if updates else self
        if spec.seed is None:
            spec = spec.replace(seed=spec.derived_seed())
        return spec

    def derived_seed(self) -> int:
        """Deterministic per-scenario seed from the spec content.

        Hashes the auto-resolved payload minus the seed field itself,
        so the derivation is stable under resolution and a spec
        spelling an auto value explicitly seeds identically to the
        auto form.  The streaming replay knobs (``stream_chunk``,
        ``stream_feed_hz``) are excluded too: they change how the
        captured pass is *fed to the decoder*, not the physical pass,
        so a streamed scenario must see exactly the offline scenario's
        noise.  ``fault_plan`` is excluded for the same reason: faults
        corrupt the capture and transport of the pass, never its
        physics, so a chaos sweep measures degradation on exactly the
        passes the clean run decoded.  Every other field perturbs the
        seed, giving each grid point independent noise.
        """
        payload = self.to_dict()
        payload.pop("seed")
        payload.pop("stream_chunk")
        payload.pop("stream_feed_hz")
        payload.pop("fault_plan", None)
        if payload["sample_rate_hz"] is None:
            payload["sample_rate_hz"] = self.auto_sample_rate_hz()
        if payload["start_position_m"] is None:
            payload["start_position_m"] = self.auto_start_position_m()
        return derive_seed(json.dumps(payload, sort_keys=True))

    # ------------------------------------------------------------------
    # Serialization and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe).

        Every field but ``fault_plan`` is a flat scalar, so a direct
        dict build produces exactly ``dataclasses.asdict(self)``
        without its recursive deep-copy walk — this sits on the batch
        executor's per-record hot path.  ``fault_plan`` is emitted as
        a nested dict and **omitted entirely when unset**, so fault-free
        specs keep the exact serialized form (and hashes) they had
        before the field existed.
        """
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        if self.fault_plan is not None:
            data["fault_plan"] = self.fault_plan.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**dict(data))

    def replace(self, **updates: Any) -> "ScenarioSpec":
        """Copy with fields changed (validation re-runs)."""
        known = {f.name for f in dataclasses.fields(self)}
        unknown = set(updates) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return dataclasses.replace(self, **updates)

    def canonical_json(self) -> str:
        """Stable JSON encoding used for hashing and cache keys."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        """SHA-256 over the resolved spec — the cache key."""
        resolved = self.resolve()
        return hashlib.sha256(resolved.canonical_json().encode()).hexdigest()

    def identity(self) -> "SpecIdentity":
        """Resolve once, serialize once, hash once.

        The single derivation of (payload, canonical JSON, content
        hash) shared by the serial executor and the tensor batch path
        — each value is computed exactly once, so per-record hot loops
        never re-resolve or re-serialize.
        """
        resolved = self.resolve()
        payload = resolved.to_dict()
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return SpecIdentity(
            payload=payload,
            canonical_json=canonical,
            content_hash=hashlib.sha256(canonical.encode()).hexdigest())

    def optical_key(self, identity: "SpecIdentity | None" = None) -> str:
        """Grouping key: the resolved spec minus the noise seed.

        Two specs with the same key share every seed-independent
        physics stage, which is what lets the tensor backend batch
        them.  ``speed_jitter`` motion consumes the seed inside the
        scene itself (the wander profile), so those specs keep their
        seed in the key and only group with exact duplicates.

        Args:
            identity: this spec's precomputed :meth:`identity`, when
                the caller already has it (the batch path derives both
                per spec).
        """
        ident = self.identity() if identity is None else identity
        if ident.payload["motion"] == "speed_jitter":
            return ident.canonical_json
        # Zero the seed in the already-serialised string: keys are
        # unique in the canonical JSON and no field value can contain
        # ``"seed":``, so this single substitution equals
        # re-serialising ``{**payload, "seed": 0}``.
        return ident.canonical_json.replace(
            f'"seed":{ident.payload["seed"]}', '"seed":0', 1)


#: Scalar field names in declaration order, resolved once for the
#: :meth:`ScenarioSpec.to_dict` fast path (``fault_plan`` is handled
#: separately: nested, and omitted when ``None``).
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(ScenarioSpec)
                     if f.name != "fault_plan")


class SpecIdentity(NamedTuple):
    """One spec's resolved identity, derived in a single pass.

    Attributes:
        payload: the resolved spec as a plain dict
            (:meth:`ScenarioSpec.to_dict`).
        canonical_json: byte-stable serialization of ``payload``.
        content_hash: SHA-256 of ``canonical_json`` — the cache key.
    """

    payload: dict[str, Any]
    canonical_json: str
    content_hash: str


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------

def grid_size(axes: Mapping[str, Sequence[Any]]) -> int:
    """Number of scenarios a grid expands to."""
    return math.prod(len(values) for values in axes.values()) if axes else 1


def expand_grid(template: ScenarioSpec,
                axes: Mapping[str, Sequence[Any]]) -> list[ScenarioSpec]:
    """Fan a template out over the Cartesian product of axis values.

    Args:
        template: base spec supplying every non-swept field.
        axes: field name -> sequence of values.  Order is significant:
            the last axis varies fastest (row-major), so results line up
            with ``itertools.product`` of the values.

    Returns:
        ``prod(len(v))`` concrete specs, deterministic order.
    """
    field_names = {f.name for f in dataclasses.fields(ScenarioSpec)}
    for name, values in axes.items():
        if name not in field_names:
            raise ValueError(f"unknown spec field in grid axis: {name!r}")
        if len(values) == 0:
            raise ValueError(f"grid axis {name!r} has no values")
    names = list(axes)
    specs = []
    for combo in itertools.product(*(axes[n] for n in names)):
        specs.append(template.replace(**dict(zip(names, combo))))
    return specs


@dataclass(frozen=True)
class GridSpec:
    """A template + axes pair, the JSON form the CLI consumes.

    Example document::

        {"template": {"source": "sun", "detector": "led", "cap": false},
         "axes": {"ground_lux": [100, 450, 3700],
                  "seed": [2, 3, 4, 5, 6]}}
    """

    template: ScenarioSpec
    axes: dict[str, list[Any]]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GridSpec":
        template = ScenarioSpec.from_dict(data.get("template", {}))
        axes = {str(k): list(v) for k, v in data.get("axes", {}).items()}
        return cls(template=template, axes=axes)

    def expand(self) -> list[ScenarioSpec]:
        """The concrete scenario list."""
        return expand_grid(self.template, self.axes)

    def size(self) -> int:
        """Scenario count without expanding."""
        return grid_size(self.axes)
