"""Cross-scenario batched execution: N captures as one (N x T) tensor.

:func:`execute_batch` is the tensor-backend counterpart of the serial
:func:`repro.engine.execute_scenario` loop.  It groups resolved specs by
their *optical key* — the resolved spec minus the noise seed — fetches
the group's seed-independent :class:`~repro.channel.simulator.CapturePlan`
once from the executor's plan cache (the same plan the serial and
streaming drivers capture from), and draws all of the group's noise
rows from it as one ``(N, T)`` stack in a single process with no
pickling.

The tensor path adds only the grouping and the row stacking.
Decoding is the one adaptive decode kernel every driver uses,
:func:`repro.core.decoder.decode_rows`, handed the group's whole row
stack at once.

Equivalence contract: every :class:`~repro.engine.records.RunRecord`
is **byte-identical** (``canonical_json``) to the serial executor's
record for the same resolved spec.  This holds structurally:

* the capture is the serial one: the same plan, and the front end's
  row-wise noise → clip → amplify → ADC suffix, whose rows equal
  one-row captures;
* the decode kernel's rows are independent of each other;
* specs the fast path does not cover (networked receivers, streamed
  replay, the two-phase car decoder) are delegated to
  ``execute_scenario`` unchanged, as is any group whose fast path
  raises — correctness never depends on the fast path succeeding.
"""

from __future__ import annotations

import time
from collections import OrderedDict

from ..core.decoder import DecodeResult, DecoderConfig, decode_rows
from ..core.errors import PreambleNotFoundError
from ..engine.executor import capture_plan, clear_plan_cache, execute_scenario
from ..engine.records import (
    RecordStage,
    RunRecord,
    make_record,
    outcome_stage,
)
from ..engine.spec import ScenarioSpec, SpecIdentity
from ..exec.graph import ExecStage, maybe_stage, new_trace
from ..tags.packet import Packet

__all__ = ["execute_batch", "optical_key", "fast_path_eligible",
           "clear_plan_cache"]


def optical_key(spec: ScenarioSpec) -> str:
    """Grouping key: the resolved spec minus the noise seed.

    Delegates to :meth:`ScenarioSpec.optical_key` — the one derivation
    of grouping identity, shared with the engine's executor (see the
    regression test pinning both call sites together).
    """
    return spec.optical_key()


def fast_path_eligible(spec: ScenarioSpec) -> bool:
    """Whether the fused tensor path covers this spec.

    Networked arrays, streamed replay, fault-injected scenarios and the
    two-phase car decoder keep their specialised serial paths (they are
    delegated, per spec, to ``execute_scenario`` — records stay
    identical by construction).
    """
    return (spec.n_receivers == 1 and spec.stream_chunk == 0
            and spec.decoder == "adaptive" and spec.fault_plan is None)


# ----------------------------------------------------------------------
# Group execution and the public entry point
# ----------------------------------------------------------------------

def _run_group(key: str, specs: list[ScenarioSpec],
               idents: list[SpecIdentity]) -> list[RunRecord]:
    started = time.perf_counter()
    spec0 = specs[0]
    rows = len(specs)
    profile = new_trace()

    with maybe_stage(profile, ExecStage.BUILD):
        plan = capture_plan(spec0, key)
        packet = Packet.from_bitstring(spec0.bits,
                                       symbol_width_m=spec0.symbol_width_m)
    sent = packet.bit_string()
    n_data_symbols = 2 * len(packet.data_bits)

    with maybe_stage(profile, ExecStage.SIMULATE):
        traces = plan.traces([spec.seed for spec in specs])
    decodes = decode_rows(
        traces, n_data_symbols,
        DecoderConfig(threshold_rule=spec0.threshold_rule),
        stage_trace=profile)

    elapsed = (time.perf_counter() - started) / rows
    if profile is not None:
        # The group ran its fused stages once for the whole row stack;
        # each record carries an equal per-scenario share of the
        # timings and of the counters (every group counter counts once
        # per row), so stage totals and counts aggregate the same way
        # serial traces do.
        profile.count("batch_rows", rows)
        share = profile.scaled(1.0 / rows)
        share.counters = {k: n // rows for k, n in profile.counters.items()}
        profile = share
    records = []
    for spec, ident, result in zip(specs, idents, decodes):
        decoded = ""
        if isinstance(result, DecodeResult):
            decoded = result.bit_string()
            stage = outcome_stage(decoded, sent)
        elif isinstance(result, PreambleNotFoundError):
            stage = RecordStage.PREAMBLE_NOT_FOUND.value
        else:
            stage = RecordStage.DECODE_FAILED.value
        records.append(make_record(
            spec_hash=ident.content_hash,
            spec=ident.payload,
            seed=spec.seed,
            sent_bits=sent,
            decoded_bits=decoded,
            stage=stage,
            n_samples=plan.n_samples,
            sample_rate_hz=plan.sample_rate_hz,
            noise_floor_lux=plan.noise_floor_lux,
            elapsed_s=elapsed,
            stage_trace=profile,
        ))
    return records


def execute_batch(specs) -> list[RunRecord]:
    """Execute a batch of scenarios through the fused tensor path.

    Args:
        specs: iterable of :class:`ScenarioSpec` (resolved or not).

    Returns:
        One :class:`RunRecord` per spec, in submission order.
    """
    resolved = [spec.resolve() for spec in specs]
    records: list[RunRecord | None] = [None] * len(resolved)

    groups: "OrderedDict[str, list[int]]" = OrderedDict()
    idents: list[SpecIdentity | None] = [None] * len(resolved)
    for i, spec in enumerate(resolved):
        if fast_path_eligible(spec):
            ident = spec.identity()
            idents[i] = ident
            groups.setdefault(spec.optical_key(ident), []).append(i)
        else:
            records[i] = execute_scenario(spec)

    for key, indices in groups.items():
        group = [resolved[i] for i in indices]
        try:
            group_records = _run_group(
                key, group, [idents[i] for i in indices])
        except Exception:
            # Correctness never rides on the fast path: any failure —
            # degenerate geometry, a scene that raises mid-physics —
            # re-runs the group through the serial executor, which
            # produces the exact records (including error records).
            group_records = [execute_scenario(spec) for spec in group]
        for i, record in zip(indices, group_records):
            records[i] = record
    return records
