"""Tests for repro.tensor.batch — the fused cross-scenario executor.

The headline contract is byte-identity: every record out of
:func:`execute_batch` must serialize to exactly the same
``canonical_json`` as the serial :func:`execute_scenario` — across the
bench grid, every registered scenario family, and hypothesis-drawn
specs.  Both drivers capture from the executor's one plan cache.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.decoder as decoder_mod
import repro.engine.executor as executor_mod
from repro.dsp.peaks import Extremum, _first_triple, first_preamble_points
from repro.engine.cache import ResultCache
from repro.engine.executor import execute_scenario
from repro.engine.runner import BatchRunner
from repro.engine.spec import ScenarioSpec, expand_grid
from repro.exec.graph import ExecStage, profiled
from repro.scenarios.library import expand_family, family_names
from repro.tensor.batch import (
    clear_plan_cache,
    execute_batch,
    fast_path_eligible,
    optical_key,
)

#: The perf suite's cheap outdoor scenario (~3 ms per serial run).
FAST = ScenarioSpec(source="sun", detector="led", cap=False,
                    ground="tarmac", bits="00", symbol_width_m=0.1,
                    speed_mps=5.0, receiver_height_m=0.25,
                    start_position_m=-1.5, sample_rate_hz=2000.0,
                    ground_lux=450.0, seed=3)


def _assert_byte_identical(specs):
    serial = [execute_scenario(s) for s in specs]
    batch = execute_batch(specs)
    assert len(batch) == len(serial)
    for ref, got in zip(serial, batch):
        assert got.canonical_json() == ref.canonical_json()


class TestFloat64ByteIdentity:
    def test_bench_grid(self):
        _assert_byte_identical(
            expand_grid(FAST, {"seed": list(range(2, 14))}))

    def test_mixed_groups_and_failures(self):
        # Low light fails to decode; the failing records must match too.
        _assert_byte_identical(
            expand_grid(FAST, {"ground_lux": [450.0, 100.0],
                               "seed": [2, 3, 4]}))

    @pytest.mark.parametrize("family", family_names())
    def test_every_registered_family(self, family):
        _assert_byte_identical(expand_family(family, count=3, seed=1))

    @given(ground_lux=st.sampled_from([120.0, 300.0, 450.0, 700.0]),
           speed=st.sampled_from([3.0, 5.0, 9.0, 14.0]),
           bits=st.sampled_from(["00", "10", "1001"]),
           seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1,
                          max_size=4, unique=True))
    @settings(max_examples=12, deadline=None)
    def test_property_equivalence(self, ground_lux, speed, bits, seeds):
        template = FAST.replace(ground_lux=ground_lux, speed_mps=speed,
                                bits=bits)
        _assert_byte_identical(expand_grid(template, {"seed": seeds}))


class TestGrouping:
    def test_optical_key_drops_seed(self):
        a = FAST.replace(seed=1).resolve()
        b = FAST.replace(seed=99).resolve()
        assert optical_key(a) == optical_key(b)
        assert optical_key(a) != optical_key(
            FAST.replace(ground_lux=300.0).resolve())

    def test_speed_jitter_keeps_seed_in_key(self):
        jitter = FAST.replace(motion="speed_jitter")
        a = jitter.replace(seed=1).resolve()
        b = jitter.replace(seed=2).resolve()
        assert optical_key(a) != optical_key(b)
        # ... and those specs still decode identically to serial.
        _assert_byte_identical([a, b])

    def test_one_plan_per_optical_group(self):
        clear_plan_cache()
        execute_batch(expand_grid(FAST, {"ground_lux": [450.0, 440.0],
                                         "seed": [2, 3, 4]}))
        assert len(executor_mod._PLAN_CACHE) == 2

    def test_eligibility_gates(self):
        assert fast_path_eligible(FAST.resolve())
        assert not fast_path_eligible(
            FAST.replace(n_receivers=3).resolve())
        assert not fast_path_eligible(
            FAST.replace(stream_chunk=64).resolve())
        assert not fast_path_eligible(
            FAST.replace(decoder="two_phase").resolve())

    def test_ineligible_specs_delegate_and_match_serial(self):
        specs = [FAST.replace(n_receivers=3).resolve(),
                 FAST.replace(stream_chunk=64).resolve()]
        _assert_byte_identical(specs)


class TestPlanCache:
    """The serial, tensor and streaming drivers share one plan cache."""

    def test_serial_records_identical_cold_and_warm(self):
        specs = expand_grid(FAST, {"ground_lux": [450.0, 100.0],
                                   "seed": [2, 3]})
        clear_plan_cache()
        cold = [execute_scenario(s).canonical_json() for s in specs]
        assert len(executor_mod._PLAN_CACHE) == 2
        warm = [execute_scenario(s).canonical_json() for s in specs]
        clear_plan_cache()
        assert [execute_scenario(s).canonical_json()
                for s in specs] == cold == warm

    def test_serial_after_tensor_builds_no_plan(self, monkeypatch):
        clear_plan_cache()
        execute_batch(expand_grid(FAST, {"seed": [2, 3, 4]}))
        built = []
        real = executor_mod.build_simulator

        def counting_build(spec):
            built.append(spec)
            return real(spec)

        monkeypatch.setattr(executor_mod, "build_simulator", counting_build)
        record = execute_scenario(FAST.replace(seed=9))
        assert built == []
        assert len(executor_mod._PLAN_CACHE) == 1
        clear_plan_cache()
        assert record.canonical_json() == execute_scenario(
            FAST.replace(seed=9)).canonical_json()
        assert len(built) == 1

    def test_capture_trace_shares_the_plan(self):
        clear_plan_cache()
        execute_batch([FAST])
        trace = executor_mod.capture_trace(FAST.replace(seed=11))
        assert len(executor_mod._PLAN_CACHE) == 1
        clear_plan_cache()
        fresh = executor_mod.capture_trace(FAST.replace(seed=11))
        assert np.array_equal(trace.samples, fresh.samples)
        assert trace.meta == fresh.meta


def _literal_first_triple(extrema):
    """The A/B/C scan written out over Extremum objects (the oracle)."""
    a = b = None
    for ext in extrema:
        if ext.kind == "peak":
            if a is None:
                a = ext
            elif b is not None:
                return (a, b, ext)
            elif ext.value > a.value:
                a = ext
        elif a is not None and b is None:
            b = ext
        elif a is not None and b is not None and ext.value < b.value:
            b = ext
    return None


class TestFirstTripleScan:
    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(-10.0, 10.0, allow_nan=False)),
                    min_size=0, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_differential_vs_first_preamble_points(self, seq):
        idx = np.arange(10, 10 + 3 * len(seq), 3)
        val = np.array([v for _, v in seq])
        is_peak = np.array([p for p, _ in seq], dtype=bool)
        extrema = [Extremum(int(idx[j]), idx[j] / 100.0, float(val[j]),
                            "peak" if is_peak[j] else "valley")
                   for j in range(len(seq))]
        oracle = _literal_first_triple(extrema)
        assert first_preamble_points(extrema) == oracle
        got = _first_triple(val, is_peak)
        if oracle is None:
            assert got is None
        else:
            assert got is not None
            assert tuple(extrema[j] for j in got) == oracle


class TestStageCoverage:
    def test_acquire_stage_covers_the_peak_search(self, monkeypatch):
        """The acquisition scan (peak search, triple scan, plausibility)
        is timed as ``acquire`` on the tensor driver too."""
        pause_s = 0.002
        calls = []
        real = decoder_mod._prominent_peaks

        def slow_peaks(x, prominence, distance):
            calls.append(1)
            time.sleep(pause_s)
            return real(x, prominence, distance)

        monkeypatch.setattr(decoder_mod, "_prominent_peaks", slow_peaks)
        specs = expand_grid(FAST, {"seed": [2, 3, 4, 5]})
        with profiled():
            records = execute_batch(specs)
        assert calls
        # Each record carries a 1/n share of the group's fused stages.
        acquire_s = sum(r.stage_trace.timings_s[ExecStage.ACQUIRE.value]
                        for r in records)
        assert acquire_s >= len(calls) * pause_s


class TestRunnerIntegration:
    def test_tensor_backend_parity_with_process_backend(self):
        specs = expand_grid(FAST, {"seed": [2, 3, 4, 5]})
        serial = BatchRunner(workers=1).run(specs)
        tensor = BatchRunner(backend="tensor").run(specs)
        assert ([r.canonical_json() for r in tensor.records]
                == [r.canonical_json() for r in serial.records])
        assert tensor.stats.backend == "tensor"
        assert serial.stats.backend == "process"

    def test_float64_shares_cache_with_serial(self, tmp_path):
        specs = expand_grid(FAST, {"seed": [2, 3]})
        cache = ResultCache(tmp_path / "cache")
        BatchRunner(backend="tensor", cache=cache).run(specs)
        # A serial runner over the same specs answers from cache.
        result = BatchRunner(workers=1, cache=cache).run(specs)
        assert result.stats.cache_hits == len(specs)

    def test_dtype_validation(self):
        # There is one capture precision: the dtype knob is gone.
        with pytest.raises(TypeError):
            BatchRunner(backend="tensor", dtype="float32")
        with pytest.raises(TypeError):
            execute_batch([FAST], dtype="float32")
        with pytest.raises(ValueError):
            BatchRunner(backend="gpu")
