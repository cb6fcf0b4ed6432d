"""Tests for repro.engine.spec — declarative scenarios and grids."""

import dataclasses

import pytest

from repro.engine import GridSpec, ScenarioSpec, expand_grid, grid_size


def outdoor_spec(**updates):
    base = ScenarioSpec(source="sun", detector="led", cap=False,
                        ground="tarmac", bits="00", symbol_width_m=0.1,
                        speed_mps=5.0, receiver_height_m=0.25,
                        start_position_m=-1.5, sample_rate_hz=2000.0)
    return base.replace(**updates) if updates else base


class TestValidation:
    def test_defaults_valid(self):
        ScenarioSpec()

    @pytest.mark.parametrize("updates", [
        {"bits": ""},
        {"bits": "012"},
        {"symbol_width_m": 0.0},
        {"receiver_height_m": -0.2},
        {"speed_mps": 0.0},
        {"source": "laser"},
        {"detector": "ccd"},
        {"pd_gain": "G9"},
        {"decoder": "viterbi"},
        {"car": "tesla"},
        {"dirt": 1.5},
        {"visibility_m": 0.0},
        {"sample_rate_hz": -1.0},
    ])
    def test_bad_field_rejected(self, updates):
        with pytest.raises(ValueError):
            ScenarioSpec(**updates)

    FLOAT_FIELDS = ("symbol_width_m", "receiver_height_m", "speed_mps",
                    "lamp_intensity_cd", "lamp_offset_m", "ground_lux",
                    "fluorescent_height_m", "dirt", "visibility_m",
                    "start_position_m", "sample_rate_hz", "motion_param",
                    "receiver_spacing_m", "stream_feed_hz")

    def test_float_field_list_is_complete(self):
        assert {f.name for f in dataclasses.fields(ScenarioSpec)
                if f.type in ("float", "float | None")} == set(
                    self.FLOAT_FIELDS)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            outdoor_spec(**{name: value})

    def test_dirt_on_car_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(car="volvo_v40", dirt=0.3)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            ScenarioSpec().replace(source="nope")


class TestSerialization:
    def test_dict_roundtrip(self):
        spec = outdoor_spec(car="volvo_v40", decoder="two_phase", seed=7)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="wavelength"):
            ScenarioSpec.from_dict({"wavelength": 650.0})

    def test_canonical_json_stable(self):
        spec = outdoor_spec()
        assert spec.canonical_json() == spec.canonical_json()


class TestResolution:
    def test_resolve_fills_auto_fields(self):
        spec = ScenarioSpec()
        resolved = spec.resolve()
        assert resolved.sample_rate_hz == spec.auto_sample_rate_hz()
        assert resolved.start_position_m == spec.auto_start_position_m()
        assert resolved.seed is not None

    def test_resolve_idempotent(self):
        resolved = ScenarioSpec().resolve()
        assert resolved.resolve() == resolved

    def test_auto_sample_rate_clamped(self):
        slow = ScenarioSpec(speed_mps=0.01, symbol_width_m=0.1)
        fast = ScenarioSpec(speed_mps=50.0, symbol_width_m=0.1)
        assert slow.auto_sample_rate_hz() == 200.0
        assert fast.auto_sample_rate_hz() == 2000.0

    def test_derived_seed_deterministic_but_field_sensitive(self):
        a, b = ScenarioSpec(), ScenarioSpec()
        assert a.derived_seed() == b.derived_seed()
        assert a.derived_seed() != a.replace(bits="00").derived_seed()
        # Stable under resolution: explicit derived seed hashes the same.
        assert a.resolve().content_hash() == a.content_hash()


class TestContentHash:
    def test_hash_changes_with_any_field(self):
        spec = outdoor_spec(seed=1)
        assert spec.content_hash() != spec.replace(seed=2).content_hash()
        assert (spec.content_hash()
                != spec.replace(ground_lux=451.0).content_hash())

    def test_equivalent_auto_and_explicit_share_hash(self):
        auto = outdoor_spec(seed=1).replace(sample_rate_hz=None)
        explicit = outdoor_spec(seed=1, sample_rate_hz=2000.0)
        assert auto.content_hash() == explicit.content_hash()

    def test_auto_and_explicit_share_derived_seed_and_hash(self):
        """Spelling an auto value explicitly must not perturb the
        derived seed, or identical scenarios would miss the cache."""
        auto = ScenarioSpec()
        explicit = ScenarioSpec(
            sample_rate_hz=auto.auto_sample_rate_hz(),
            start_position_m=auto.auto_start_position_m())
        assert auto.derived_seed() == explicit.derived_seed()
        assert auto.content_hash() == explicit.content_hash()


class TestGridExpansion:
    def test_counts_and_order(self):
        specs = expand_grid(outdoor_spec(),
                            {"ground_lux": [100.0, 450.0],
                             "seed": [1, 2, 3]})
        assert len(specs) == 6
        assert grid_size({"ground_lux": [100.0, 450.0],
                          "seed": [1, 2, 3]}) == 6
        # Row-major: the last axis varies fastest.
        assert [s.ground_lux for s in specs] == [100.0] * 3 + [450.0] * 3
        assert [s.seed for s in specs] == [1, 2, 3, 1, 2, 3]

    def test_empty_axes_is_single_scenario(self):
        assert expand_grid(outdoor_spec(), {}) == [outdoor_spec()]
        assert grid_size({}) == 1

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="frequency"):
            expand_grid(outdoor_spec(), {"frequency": [1.0]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_grid(outdoor_spec(), {"seed": []})

    def test_thousands_of_scenarios(self):
        specs = expand_grid(
            ScenarioSpec(),
            {"receiver_height_m": [0.2 + 0.01 * i for i in range(10)],
             "symbol_width_m": [0.02 + 0.005 * i for i in range(10)],
             "seed": list(range(20))})
        assert len(specs) == 2000
        assert len({s.content_hash() for s in specs}) == 2000

    def test_gridspec_from_dict(self):
        grid = GridSpec.from_dict({
            "template": {"source": "sun", "detector": "led", "cap": False},
            "axes": {"ground_lux": [100.0, 450.0], "seed": [1, 2]}})
        assert grid.size() == 4
        specs = grid.expand()
        assert len(specs) == 4
        assert all(s.source == "sun" for s in specs)
