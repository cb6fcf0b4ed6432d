"""FaultPlan: validation, scaling, serialization, layer properties."""

import dataclasses
import math

import pytest

from repro.faults.plan import PROBABILITY_FIELDS, RATE_FIELDS, FaultPlan

#: Every float-valued plan field (all but the integer ``delay_chunks``).
FLOAT_FIELDS = sorted(f.name for f in dataclasses.fields(FaultPlan)
                      if f.name != "delay_chunks")


class TestValidation:
    def test_default_plan_is_empty(self):
        plan = FaultPlan()
        assert plan.empty
        assert not plan.streams
        assert not plan.signals
        assert not plan.nodes

    @pytest.mark.parametrize("name", sorted(PROBABILITY_FIELDS))
    def test_probabilities_bounded(self, name):
        FaultPlan(**{name: 0.0})
        FaultPlan(**{name: 1.0})
        with pytest.raises(ValueError, match=name):
            FaultPlan(**{name: 1.5})
        with pytest.raises(ValueError, match=name):
            FaultPlan(**{name: -0.1})

    @pytest.mark.parametrize("name", ["burst_rate_hz", "dropout_rate_hz"])
    def test_rates_nonnegative(self, name):
        FaultPlan(**{name: 0.0})
        with pytest.raises(ValueError, match=name):
            FaultPlan(**{name: -1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_rejected(self, name, bad):
        # NaN passes every ordered range check, so finiteness is its
        # own gate (NaN drift used to yield a cacheable verdict).
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FaultPlan(**{name: bad})

    def test_negative_clock_drift_allowed(self):
        assert FaultPlan(clock_drift_ppm=-500.0).signals

    def test_saturate_fraction_below_one(self):
        with pytest.raises(ValueError, match="saturate_fraction"):
            FaultPlan(saturate_fraction=1.0)

    def test_delay_chunks_positive(self):
        with pytest.raises(ValueError, match="delay_chunks"):
            FaultPlan(delay_chunks=0)

    def test_exec_sleep_capped(self):
        with pytest.raises(ValueError, match="exec_sleep_s"):
            FaultPlan(exec_sleep_s=601.0)

    def test_intermittent_fraction_bounds(self):
        with pytest.raises(ValueError, match="intermittent_fraction"):
            FaultPlan(intermittent_fraction=0.0)


class TestLayers:
    def test_stream_knobs_flag_streams(self):
        assert FaultPlan(chunk_drop=0.1).streams
        assert not FaultPlan(chunk_drop=0.1).signals

    def test_signal_knobs_flag_signals(self):
        assert FaultPlan(burst_rate_hz=1.0).signals
        assert FaultPlan(clock_drift_ppm=50.0).signals

    def test_node_knobs_flag_nodes(self):
        assert FaultPlan(node_dropout=0.2).nodes
        assert FaultPlan(node_intermittent=0.2).nodes

    def test_exec_sleep_alone_is_not_empty(self):
        plan = FaultPlan(exec_sleep_s=1.0)
        assert not plan.empty
        assert not (plan.streams or plan.signals or plan.nodes)


class TestScaling:
    def test_scaled_zero_is_empty(self):
        plan = FaultPlan(chunk_drop=0.4, burst_rate_hz=2.0,
                         node_dropout=0.3)
        assert plan.scaled(0.0).empty

    def test_scaled_one_is_identity(self):
        plan = FaultPlan(chunk_drop=0.4, burst_rate_hz=2.0,
                         clock_drift_ppm=100.0)
        assert plan.scaled(1.0) == plan

    def test_scaled_probabilities_clip_at_one(self):
        plan = FaultPlan(chunk_drop=0.6)
        assert plan.scaled(3.0).chunk_drop == 1.0

    def test_scaled_rates_grow_unclipped(self):
        plan = FaultPlan(burst_rate_hz=2.0)
        assert plan.scaled(3.0).burst_rate_hz == pytest.approx(6.0)

    def test_scaled_preserves_shape_knobs(self):
        plan = FaultPlan(chunk_delay=0.2, delay_chunks=5,
                         burst_rate_hz=1.0, burst_length_s=0.05)
        scaled = plan.scaled(0.5)
        assert scaled.delay_chunks == 5
        assert scaled.burst_length_s == pytest.approx(0.05)

    def test_negative_intensity_rejected(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="intensity"):
                FaultPlan(chunk_drop=0.1).scaled(bad)


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan(chunk_drop=0.25, chunk_reorder=0.1,
                         burst_rate_hz=3.0, saturate_fraction=0.9,
                         node_dropout=0.5, intermittent_fraction=0.3)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"chunk_dorp": 0.1})

    def test_canonical_json_is_key_sorted_and_stable(self):
        import json

        plan = FaultPlan(node_dropout=0.5, chunk_drop=0.25)
        text = plan.canonical_json()
        assert text == plan.canonical_json()
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_distinct_plans_distinct_json(self):
        a = FaultPlan(chunk_drop=0.25)
        b = FaultPlan(chunk_drop=0.26)
        assert a.canonical_json() != b.canonical_json()
