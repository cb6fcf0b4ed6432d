"""The adaptive-threshold decoder (Section 4.1).

The receiver turns the RSS waveform into symbols with two per-packet
thresholds and **no calibration**:

* Find the first two peaks and the first valley of the preamble —
  points A, B, C in Fig. 5(a) — then set

  ``tau_r = ((rA - rB) + (rC - rB)) / 2``      (magnitude threshold)
  ``tau_t = ((tB - tA) + (tC - tB)) / 2``      (symbol period)

* Group subsequent samples into windows of length ``tau_t``; a window
  whose maximum exceeds the magnitude threshold is HIGH, else LOW.

The thresholds are per-packet because "we do not modulate information
with a common transmitter, but we rather let each packet determine its
own parameters: symbol width, materials used and speed".

``tau_r`` as written is a peak-to-valley *swing*; comparing a window max
against it directly implicitly assumes the valley level sits near zero
(true for the paper's normalised dark-room plots).  The faithful rule is
available as ``threshold_rule="paper"``; the default ``"midpoint"`` rule
compares against ``rB + tau_r / 2``, which is identical for
valley-anchored signals and strictly more robust on raw ADC counts with
a non-zero pedestal (see DESIGN.md Section 5 and the threshold-rule
ablation bench).

One kernel decodes for every driver.  :func:`decode_rows` takes a stack
of traces on one sample grid and runs acquisition, clock refinement and
the decision windows as passes over the whole row stack; every "max/min
of the smoothed signal inside [a, b)" question is answered through
shared sparse range-query tables (:mod:`repro.dsp.rmq`).  The serial
executor, the streaming flush, networked nodes and the analysis sweeps
reach it through :meth:`AdaptiveThresholdDecoder.decode`, a one-row
call; the tensor backend hands it whole groups.  A row's result never
depends on the other rows of its stack.

The decoder's tuning is fixed by the module constants below;
:class:`DecoderConfig` selects only the threshold rule.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..channel.trace import SignalTrace
from ..dsp.filters import moving_average
from ..dsp.peaks import Extremum, _first_triple, _prominent_peaks
from ..dsp.rmq import build_table, grid_searchsorted, log_table, range_query
from ..exec.graph import ExecStage, StageTrace, maybe_stage
from ..tags.encoding import ManchesterError, Symbol, manchester_decode
from .errors import DecodeError, PreambleNotFoundError

__all__ = ["DecoderConfig", "SymbolWindow", "DecodeResult",
           "AdaptiveThresholdDecoder", "decode_rows", "threshold_level"]

#: Acquisition peak-prominence threshold, relative to the smoothed
#: trace's peak-to-peak span.
MIN_PROMINENCE_FRACTION = 0.2

#: Acquisition sanity bound: the candidate preamble's swing (tau_r) must
#: be at least this fraction of the smoothed trace's range, or the
#: triple is rejected as noise.  Kept well below 1 because FoV blur
#: attenuates the preamble's single-symbol peaks relative to
#: double-HIGH runs in the data field.
MIN_PREAMBLE_SWING_FRACTION = 0.25

#: Fraction trimmed from *each side* of a decision window before taking
#: its maximum.  FoV blur makes symbol transitions gradual; a misaligned
#: full-width window catches the neighbouring HIGH's shoulder and
#: misreads a LOW.
WINDOW_SHRINK_FRACTION = 0.22

#: Relative tau_t search range (+-) of the clock refinement.
CLOCK_SEARCH_SPAN = 0.15

#: Safety cap on emitted symbols in auto-length mode.
MAX_SYMBOLS = 256

#: The clock refinement's candidate grid: tau_t scales x phase offsets
#: (in candidate periods).
_SCALES = np.linspace(1.0 - CLOCK_SEARCH_SPAN, 1.0 + CLOCK_SEARCH_SPAN, 13)
_REL_DELTAS = np.linspace(-0.35, 0.35, 15)

#: The preamble's known symbol pattern as HIGH flags (H, L, H, L).
_EXPECTED_HIGH = np.array([True, False, True, False])


@dataclass(frozen=True)
class DecoderConfig:
    """Options of the adaptive decoder.

    Attributes:
        threshold_rule: ``"midpoint"`` (robust) or ``"paper"`` (literal
            tau_r comparison) — see the module docstring.
    """

    threshold_rule: str = "midpoint"

    def __post_init__(self) -> None:
        if self.threshold_rule not in ("midpoint", "paper"):
            raise ValueError(
                f"threshold_rule must be 'midpoint' or 'paper', "
                f"got {self.threshold_rule!r}")


@dataclass(frozen=True)
class SymbolWindow:
    """One tau_t-long decision window.

    Attributes:
        t_start_s: window start time.
        t_end_s: window end time.
        max_value: maximum RSS inside the window.
        symbol: the decision.
    """

    t_start_s: float
    t_end_s: float
    max_value: float
    symbol: Symbol


@dataclass
class DecodeResult:
    """Everything the decoder extracted from one packet.

    Attributes:
        symbols: decoded data-field symbols (after the preamble).
        bits: Manchester-decoded payload, or None when the symbol
            stream is not a valid Manchester sequence.
        tau_r: magnitude threshold (swing units, per the paper).
        tau_t: symbol period estimate (s).
        threshold_level: absolute RSS level used for HIGH/LOW decisions.
        anchor_points: the (A, B, C) preamble extrema.
        windows: the data-field decision windows.
        preamble_verified: whether re-decoding the preamble region with
            the derived thresholds reproduces HLHL.
    """

    symbols: list[Symbol]
    bits: list[int] | None
    tau_r: float
    tau_t: float
    threshold_level: float
    anchor_points: tuple[Extremum, Extremum, Extremum]
    windows: list[SymbolWindow] = field(default_factory=list)
    preamble_verified: bool = False

    @property
    def success(self) -> bool:
        """True when a valid Manchester payload was recovered."""
        return self.bits is not None and len(self.bits) > 0

    def symbol_string(self) -> str:
        """Data symbols in the paper's 'HLHL' notation."""
        return "".join(s.value for s in self.symbols)

    def bit_string(self) -> str:
        """Payload bits as '0'/'1' characters ('' when decoding failed)."""
        if self.bits is None:
            return ""
        return "".join(str(b) for b in self.bits)


class AdaptiveThresholdDecoder:
    """Implements the paper's calibration-free RSS decoder."""

    def __init__(self, config: DecoderConfig | None = None) -> None:
        self.config = config or DecoderConfig()

    def acquire_preamble(self, trace: SignalTrace,
                         ) -> tuple[Extremum, Extremum, Extremum]:
        """Find the A/B/C anchor points of the preamble.

        Raises:
            PreambleNotFoundError: when no peak-valley-peak triple with
                sufficient prominence exists.
        """
        raw, t0, fs = _row_stack([trace])
        got = _acquire_rows(raw, t0, fs)[0]
        if not isinstance(got, PreambleNotFoundError):
            return got[0]
        try:
            raise got
        finally:
            # A local bound to the raised error closes a frame -> error
            # -> traceback -> frame cycle that only the cyclic collector
            # frees; a caller polling a growing trace fails on most calls.
            del got

    @staticmethod
    def thresholds(points: tuple[Extremum, Extremum, Extremum],
                   ) -> tuple[float, float]:
        """Compute (tau_r, tau_t) from the anchor points — Section 4.1."""
        a, b, c = points
        tau_r = ((a.value - b.value) + (c.value - b.value)) / 2.0
        tau_t = ((b.time_s - a.time_s) + (c.time_s - b.time_s)) / 2.0
        if tau_r <= 0.0 or tau_t <= 0.0:
            raise PreambleNotFoundError(
                f"non-positive tau_r={tau_r:.3g} or tau_t={tau_t:.3g}; "
                "anchor points are not a real peak-valley-peak triple")
        return tau_r, tau_t

    def decode(self, trace: SignalTrace,
               n_data_symbols: int | None = None,
               stage_trace: StageTrace | None = None) -> DecodeResult:
        """Decode one packet from an RSS trace (a one-row
        :func:`decode_rows` call).

        Args:
            trace: the captured RSS stream (raw counts or normalised —
                the thresholds adapt either way).
            n_data_symbols: expected number of data symbols (2N for an
                N-bit payload); None switches to auto-length mode.
            stage_trace: optional per-stage instrumentation sink (see
                :func:`decode_rows`).

        Raises:
            PreambleNotFoundError: when acquisition fails.
            DecodeError: when no decision windows fit in the trace.
        """
        result = decode_rows([trace], n_data_symbols, self.config,
                             stage_trace)[0]
        if isinstance(result, DecodeResult):
            return result
        try:
            raise result
        finally:
            del result  # no frame -> error cycle (see acquire_preamble)


# ----------------------------------------------------------------------
# The decode kernel
# ----------------------------------------------------------------------

def decode_rows(traces: list[SignalTrace],
                n_data_symbols: int | None = None,
                config: DecoderConfig | None = None,
                stage_trace: StageTrace | None = None,
                ) -> list[DecodeResult | PreambleNotFoundError | DecodeError]:
    """Decode every trace of a same-grid stack, one result per row.

    Args:
        traces: traces sharing one sample grid (length, rate and start
            time).
        n_data_symbols: expected number of data symbols (2N for an
            N-bit payload).  None switches to auto-length mode: windows
            are consumed until the trace ends (at most
            :data:`MAX_SYMBOLS`), then trailing LOW windows (the empty
            ground after the tag) are trimmed and the count is rounded
            up to even with a LOW pad.
        config: decoder options (the threshold rule).
        stage_trace: optional per-stage instrumentation sink; smoothing,
            acquisition, clock refinement and decision wall time are
            attributed to the corresponding :class:`~repro.exec.ExecStage`
            for the whole stack.  Never changes a result.

    Returns:
        Per row, the :class:`DecodeResult`, or the
        :class:`PreambleNotFoundError` / :class:`DecodeError` that row's
        decode ended with (returned, not raised).

    Raises:
        ValueError: when the traces are not on one sample grid, or
            ``n_data_symbols < 1``.
    """
    cfg = config or DecoderConfig()
    if n_data_symbols is not None and n_data_symbols < 1:
        raise ValueError("n_data_symbols must be >= 1")
    if not traces:
        return []
    raw, t0, fs = _row_stack(traces)
    results: list = _acquire_rows(raw, t0, fs, stage_trace)

    with maybe_stage(stage_trace, ExecStage.ACQUIRE):
        live = [ridx for ridx, got in enumerate(results)
                if not isinstance(got, PreambleNotFoundError)]
        if not live:
            return results
        points = [results[ridx][0] for ridx in live]
        # The plausibility gates of ``_scan`` already guarantee
        # tau_r > 0 and tau_t > 0, so no acquired triple is rejected.
        tau_r, tau_t = np.array(
            [AdaptiveThresholdDecoder.thresholds(p) for p in points]).T
        level = np.array([threshold_level(cfg.threshold_rule, swing,
                                          p[1].value)
                          for swing, p in zip(tau_r, points)])
        base_anchor = np.array([p[0].time_s for p in points]) - 0.5 * tau_t
        times = t0 + np.arange(raw.shape[1]) / fs
        tables = _range_tables(
            np.stack([results[ridx][1] for ridx in live]), tau_t, fs)

    with maybe_stage(stage_trace, ExecStage.REFINE_CLOCK):
        n_probe = min(n_data_symbols if n_data_symbols else 8, 12)
        tau_t, anchor = _refine_clock(times, t0, fs, tables, base_anchor,
                                      tau_t, tau_r, level, n_probe)

    with maybe_stage(stage_trace, ExecStage.DECIDE):
        decided = _decide(times, t0, fs, tables, points, tau_r, tau_t,
                          level, anchor, n_data_symbols)
        for ridx, result in zip(live, decided):
            results[ridx] = result
    return results


def threshold_level(rule: str, tau_r: float, valley_value: float) -> float:
    """Absolute HIGH/LOW decision level under a threshold rule (see the
    module docstring)."""
    if rule == "paper":
        return tau_r
    return valley_value + tau_r / 2.0


def _row_stack(traces: list[SignalTrace]) -> tuple[np.ndarray, float,
                                                     float]:
    """``(R, T)`` float stack of same-grid traces, plus the grid's
    start time and sample rate."""
    first = traces[0]
    grids = {(len(t.samples), t.sample_rate_hz, t.start_time_s)
             for t in traces}
    if len(grids) > 1:
        raise ValueError("decode_rows needs traces on one sample grid "
                         "(same length, sample rate and start time)")
    raw = np.stack([np.asarray(t.samples, dtype=float) for t in traces])
    return raw, first.start_time_s, first.sample_rate_hz


def _smoothing_scales(n: int) -> list[int]:
    """Candidate moving-average widths for an n-sample trace, finest
    first (deduplicated).

    1/20 of the preamble period would suppress ADC noise without
    touching the preamble peaks, but the period is unknown before
    acquisition, so small fixed fractions of the trace are tried.
    """
    return list(dict.fromkeys(
        (max(3, n // 200), max(5, n // 64), max(7, n // 32))))


class _FinestScan(NamedTuple):
    """What a failed row's finest-scale scan computed, kept on its
    :class:`PreambleNotFoundError` as ``_finest`` so streaming
    acquisition can decide how far to advance without smoothing or
    peak-searching the window again.

    ``peaks`` is None when the scan stopped before any peak search (no
    usable span); ``valleys`` is None when it also stopped before the
    valley search (fewer than two prominent peaks).
    """

    smooth: np.ndarray
    span: float
    noise_sigma: float
    peaks: np.ndarray | None
    valleys: np.ndarray | None


def _scan(smooth: np.ndarray, t0: float, fs: float, noise_sigma: float,
          ) -> tuple[tuple[Extremum, Extremum, Extremum] | str | None,
                     _FinestScan]:
    """One acquisition attempt on one smoothed row.

    Returns the A/B/C anchor points, the reason the candidate failed,
    or None when the row has no usable span at this scale — paired
    with the scan's evidence (span and the prominent extrema it
    searched).

    The plausibility gates reject noise-triggered triples: the
    preamble's HIGH-LOW swing is the dominant feature of a tag pass,
    and its two half-periods are equal (constant symbol width and,
    during the preamble, constant speed).  So the swing must be a
    substantial fraction of the trace range and clear the raw noise
    floor, and the A-B / B-C spacings must be consistent.
    """
    span = float(smooth.max() - smooth.min())
    if not span > 0.0 or not np.isfinite(span) or len(smooth) < 3:
        return None, _FinestScan(smooth, span, noise_sigma, None, None)
    prominence = MIN_PROMINENCE_FRACTION * span
    pk = _prominent_peaks(smooth, prominence, None)
    if len(pk) < 2:
        return ("fewer than two prominent peaks; no peak-valley-peak "
                "pattern", _FinestScan(smooth, span, noise_sigma, pk, None))
    vl = _prominent_peaks(-smooth, prominence, None)
    evidence = _FinestScan(smooth, span, noise_sigma, pk, vl)
    idx = np.concatenate([pk, vl])
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    is_peak = order < len(pk)
    val = smooth[idx]
    triple = _first_triple(val, is_peak)
    if triple is None:
        return (f"no peak-valley-peak pattern among {len(idx)} extrema",
                evidence)
    ja, jb, jc = triple
    times = t0 + idx / fs
    av, bv, cv = float(val[ja]), float(val[jb]), float(val[jc])
    tau_r = ((av - bv) + (cv - bv)) / 2.0
    d1 = times[jb] - times[ja]
    d2 = times[jc] - times[jb]
    # A real packet's swing towers over the sample-to-sample noise;
    # smoothed noise wiggles do not.
    if (tau_r < MIN_PREAMBLE_SWING_FRACTION * span
            or tau_r < 4.0 * noise_sigma
            or d1 <= 0.0 or d2 <= 0.0
            or abs(d1 - d2) > 0.6 * min(d1, d2)):
        return ("candidate preamble rejected: swing, noise floor or "
                "spacing implausible", evidence)
    return tuple(Extremum(int(idx[j]), times[j], float(val[j]),
                          "peak" if is_peak[j] else "valley")
                 for j in triple), evidence


def _acquire_rows(raw: np.ndarray, t0: float, fs: float,
                  stage_trace: StageTrace | None = None) -> list:
    """Multi-scale preamble acquisition for every row of ``raw``.

    Small signals (Fig. 15's ~15-count swings) need heavier smoothing
    before their preamble outgrows the noise; clean strong signals must
    not be over-smoothed or narrow symbols blur away.  Scales are tried
    finest-first and a row's first plausible triple wins; the accepted
    smoothed waveform is reused for the decision windows so thresholds
    and decisions see the same signal.  scipy's C peak routines beat
    any vectorised reformulation at this trace length, so each pending
    row runs its own peak search per scale; full :class:`Extremum`
    objects exist only for accepted anchor points.

    When profiled, the smoothing passes count as ``normalize`` and
    everything else (noise floor, peak search, triple scan,
    plausibility) as ``acquire``.

    Returns:
        Per row, ``(points, smooth)`` or the
        :class:`PreambleNotFoundError` explaining the miss.  A miss on
        a non-empty stack carries its finest-scale :class:`_FinestScan`
        as ``_finest`` (references only; nothing extra is computed).
    """
    n_rows, n = raw.shape
    if n == 0:
        # Streaming probes degenerate windows (empty suffixes,
        # sub-symbol fragments); acquisition must answer "no preamble",
        # not crash on an empty max().
        return [PreambleNotFoundError("empty trace; no preamble")
                for _ in range(n_rows)]
    with maybe_stage(stage_trace, ExecStage.ACQUIRE):
        # A last-axis reduction over a C-contiguous stack applies the
        # same pairwise summation to each row's buffer as the 1-D
        # reduction of that row alone.
        noise_sigma = (np.std(np.diff(raw, axis=1), axis=1) / math.sqrt(2.0)
                       if n > 3 else np.zeros(n_rows))
    reasons = ["trace is constant; no preamble"] * n_rows
    finest: list = [None] * n_rows
    out: list = [None] * n_rows
    pending = list(range(n_rows))
    for scale, window in enumerate(_smoothing_scales(n)):
        still: list[int] = []
        for ridx in pending:
            with maybe_stage(stage_trace, ExecStage.NORMALIZE):
                smooth = moving_average(raw[ridx], window)
            with maybe_stage(stage_trace, ExecStage.ACQUIRE):
                got, evidence = _scan(smooth, t0, fs,
                                      float(noise_sigma[ridx]))
            if isinstance(got, tuple):
                out[ridx] = (got, smooth)
                continue
            if got is not None:
                reasons[ridx] = got
            if scale == 0:
                finest[ridx] = evidence
            still.append(ridx)
        pending = still
        if not pending:
            break
    for ridx in pending:
        out[ridx] = PreambleNotFoundError(reasons[ridx])
        out[ridx]._finest = finest[ridx]
    return out


def _range_tables(smooths: np.ndarray, tau_t: np.ndarray,
                  fs: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse max/min tables over the smoothed rows, plus the log table.

    The longest range any query can ask for is one symbol window at the
    widest refinement candidate, in samples; levels beyond that are
    never touched, so the tables stop there (an underestimate would
    fault in ``range_query``, never answer wrongly).
    """
    smooths = np.ascontiguousarray(smooths)
    wide = (1.0 + CLOCK_SEARCH_SPAN) * (1.0 + 2.0 * WINDOW_SHRINK_FRACTION)
    lmax = int(np.ceil(float(tau_t.max()) * wide * fs)) + 4
    return (build_table(smooths, np.maximum, max_len=lmax),
            build_table(smooths, np.minimum, max_len=lmax),
            log_table(smooths.shape[1]))


def _masked_query(table: np.ndarray, log: np.ndarray, op: np.ufunc,
                  rows: np.ndarray, i0: np.ndarray, i1: np.ndarray,
                  valid: np.ndarray) -> np.ndarray:
    """Range-query ``[i0, i1)`` where ``valid``; junk elsewhere."""
    qa = np.where(valid, i0, 0)
    qb = np.where(valid, i1, 1)
    return range_query(table, log, op, rows, qa, qb)


def _windowed_max(times: np.ndarray, t0: float, fs: float,
                  tables: tuple, starts: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max of the smoothed rows over ``[start, end)`` windows.

    The leading axis of ``starts``/``ends`` is the row (row ``r``
    queries its own smoothed signal).  Returns ``(maxima, valid)``,
    ``valid`` marking windows that hold at least one sample; maxima of
    invalid windows are junk.
    """
    i0, i1 = grid_searchsorted(times, t0, fs, np.stack((starts, ends)))
    valid = (i1 > i0) & (i0 < len(times))
    rows = np.broadcast_to(
        np.arange(len(starts)).reshape((-1,) + (1,) * (valid.ndim - 1)),
        valid.shape)
    return (_masked_query(tables[0], tables[2], np.maximum, rows, i0, i1,
                          valid), valid)


def _refine_clock(times: np.ndarray, t0: float, fs: float, tables: tuple,
                  base_anchor: np.ndarray, tau_t: np.ndarray,
                  tau_r: np.ndarray, level: np.ndarray,
                  n_probe: int) -> tuple[np.ndarray, np.ndarray]:
    """Search (tau_t, phase) that best reproduces the HLHL preamble.

    Peak timestamps on blurred, noisy tops jitter by a few
    milliseconds, and the error accumulates across data windows, so the
    A/B/C estimate is refined against the known preamble.  This stays
    within the paper's constraint — it uses only the fixed preamble, no
    calibration — and keeps the raw estimate when no candidate
    reproduces HLHL.  Candidates are scored on two terms using only
    per-packet information:

    * the worst signed margin of the four *preamble* windows against
      their known HLHL pattern (must be positive);
    * the *flatness* of the data windows — the payload is unknown, but
      under the correct clock each (shrunk) window sits inside one
      symbol where the signal is locally flat, while a drifting clock
      centres symbol transitions inside windows, inflating their
      internal peak-to-peak excursion.

    The scale x delta x window search is evaluated for every row at
    once; data roughness is computed only for candidates that survive
    the preamble-margin test (rejected candidates score ``-inf``).

    Returns:
        Per-row ``(tau_t, anchor)``, where ``anchor`` is the start time
        of preamble symbol 1; data windows begin at ``anchor + 4 tau_t``.
    """
    tmax, tmin, log = tables
    rows, n = len(tau_t), len(times)
    cand_tau = tau_t[:, None] * _SCALES[None, :]                # (R, 13)
    shrink = WINDOW_SHRINK_FRACTION * cand_tau
    anchors = (base_anchor[:, None, None]
               + _REL_DELTAS[None, None, :] * cand_tau[:, :, None])

    tau_c = cand_tau[:, :, None, None]
    shrink_c = shrink[:, :, None, None]
    anchor_c = anchors[:, :, :, None]

    # Preamble windows k = 0..3, expected H, L, H, L: the candidate
    # survives only when every window exists and every margin against
    # `level` is positive.
    ks = np.arange(4.0)
    w_max, valid = _windowed_max(times, t0, fs, tables,
                                 anchor_c + ks * tau_c + shrink_c,
                                 anchor_c + (ks + 1.0) * tau_c - shrink_c)
    level_c = level[:, None, None, None]
    margins = np.where(_EXPECTED_HIGH, w_max - level_c, level_c - w_max)
    min_margin = margins.min(axis=-1)
    ok = valid.all(axis=-1) & (min_margin > 0.0)

    out_tau = tau_t.copy()
    out_anchor = base_anchor.copy()
    okr, oks, okd = np.nonzero(ok)
    if len(okr) == 0:
        return out_tau, out_anchor

    # Data-window roughness: mean internal peak-to-peak excursion of
    # the probe windows before the first one falling off the trace.
    dtau = cand_tau[okr, oks]
    dshrink = shrink[okr, oks]
    data_start = anchors[okr, oks, okd] + 4.0 * dtau
    kd = np.arange(float(max(n_probe, 0)))
    j0, j1 = grid_searchsorted(times, t0, fs, np.stack(
        (data_start[:, None] + kd * dtau[:, None] + dshrink[:, None],
         data_start[:, None] + (kd + 1.0) * dtau[:, None]
         - dshrink[:, None])))
    d_valid = (j1 > j0) & (j0 < n)
    rows_d = np.broadcast_to(okr[:, None], d_valid.shape)
    seg_max = _masked_query(tmax, log, np.maximum, rows_d, j0, j1, d_valid)
    seg_min = _masked_query(tmin, log, np.minimum, rows_d, j0, j1, d_valid)
    ranges = np.where(d_valid, seg_max - seg_min, 0.0)
    counts = np.cumprod(d_valid, axis=-1).sum(axis=-1)
    roughness = np.zeros(len(okr))
    # Group candidates by probe count so each group's mean reduces over
    # a contiguous prefix — the summation order of a plain np.mean over
    # that candidate's probe windows.
    for count in np.unique(counts):
        if count < 1:
            continue
        sel = counts == count
        roughness[sel] = np.mean(ranges[:, :int(count)], axis=-1)[sel]

    # All terms normalised by tau_r so the deviation penalty has a
    # consistent meaning across signal amplitudes.
    score = (min_margin[okr, oks, okd] / tau_r[okr]
             - 0.5 * roughness / tau_r[okr]
             - 0.9 * np.abs(_SCALES - 1.0)[oks]
             - 0.25 * np.abs(_REL_DELTAS)[okd])

    # First maximum in row-major (scale, delta) order wins ties.
    n_deltas = len(_REL_DELTAS)
    full = np.full((rows, len(_SCALES) * n_deltas), -np.inf)
    full[okr, oks * n_deltas + okd] = score
    r = np.unique(okr)
    s_idx, d_idx = np.divmod(np.argmax(full[r], axis=1), n_deltas)
    out_tau[r] = cand_tau[r, s_idx]
    out_anchor[r] = anchors[r, s_idx, d_idx]
    return out_tau, out_anchor


def _decide(times: np.ndarray, t0: float, fs: float, tables: tuple,
            points: list, tau_r: np.ndarray, tau_t: np.ndarray,
            level: np.ndarray, anchor: np.ndarray,
            n_data_symbols: int | None) -> list:
    """Decision windows -> symbols -> payload, plus the preamble check
    (the ``decide`` stage)."""
    # The preamble occupies symbols 1-4 from the anchor; data follows.
    data_start = anchor + 4.0 * tau_t
    if n_data_symbols is not None:
        n_windows = np.full(len(tau_t), n_data_symbols)
    else:
        n_windows = np.minimum(
            MAX_SYMBOLS, np.floor((times[-1] - data_start) / tau_t),
        ).astype(np.intp)
    shrink = (WINDOW_SHRINK_FRACTION * tau_t)[:, None]
    ks = np.arange(float(max(int(n_windows.max()), 0)))
    w_starts = data_start[:, None] + ks[None, :] * tau_t[:, None]
    w_ends = w_starts + tau_t[:, None]
    maxima, valid = _windowed_max(times, t0, fs, tables, w_starts + shrink,
                                w_ends - shrink)
    # Windows are consumed in order until the first one falls off the
    # trace.
    valid &= ks[None, :] < n_windows[:, None]
    n_good = np.cumprod(valid, axis=1).sum(axis=1)

    k4 = np.arange(4.0)
    p_max, p_valid = _windowed_max(
        times, t0, fs, tables,
        anchor[:, None] + k4 * tau_t[:, None] + shrink,
        anchor[:, None] + (k4 + 1.0) * tau_t[:, None] - shrink)
    verified = (p_valid.all(axis=1)
                & ((p_max > level[:, None]) == _EXPECTED_HIGH).all(axis=1))

    out: list = []
    for r in range(len(tau_t)):
        good = int(n_good[r])
        if good == 0:
            out.append(DecodeError(
                "no decision window fits between the preamble and the "
                "end of the trace"))
            continue
        lvl = float(level[r])
        period = float(tau_t[r])
        windows = [SymbolWindow(s, e, m,
                                Symbol.HIGH if m > lvl else Symbol.LOW)
                   for s, e, m in zip(w_starts[r, :good].tolist(),
                                      w_ends[r, :good].tolist(),
                                      maxima[r, :good].tolist())]
        if n_data_symbols is None:
            # Trim the trailing ground (LOW) and keep an even count.
            while windows and windows[-1].symbol is Symbol.LOW:
                windows.pop()
            if len(windows) % 2 == 1:
                # A Manchester stream is even; the last HIGH must be the
                # first half of a trailing '0' bit whose LOW half was
                # trimmed with the ground.
                last = windows[-1]
                windows.append(SymbolWindow(last.t_end_s,
                                            last.t_end_s + period,
                                            lvl, Symbol.LOW))
        symbols = [w.symbol for w in windows]
        try:
            bits: list[int] | None = manchester_decode(symbols)
        except ManchesterError:
            bits = None
        out.append(DecodeResult(
            symbols=symbols,
            bits=bits,
            tau_r=float(tau_r[r]),
            tau_t=period,
            threshold_level=lvl,
            anchor_points=points[r],
            windows=windows,
            preamble_verified=bool(verified[r]),
        ))
    return out
