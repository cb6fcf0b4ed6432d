"""Tests for the telemetry CLI surface (--telemetry, metrics)."""

import json

import pytest

from repro.engine.cli import main
from repro.obs import EventLog, load_snapshot, set_events, set_registry

from tests.test_engine_cli import FAST_SETS


@pytest.fixture(autouse=True)
def _clean_telemetry():
    set_registry(None)
    set_events(None)
    yield
    set_registry(None)
    set_events(None)


def series_names(snapshot):
    return {c["name"] for group in ("counters", "gauges", "histograms")
            for c in snapshot.get(group, ())}


class TestTelemetryFlag:
    def test_sweep_writes_artifacts(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        argv = ["sweep", *FAST_SETS,
                "--axis", "ground_lux=450,100",
                "--cache-dir", str(tmp_path / "cache"),
                "--telemetry", str(tel)]
        assert main(argv) == 0
        assert "telemetry written to" in capsys.readouterr().out
        snap = load_snapshot(tel / "metrics.json")
        assert snap["schema"] == "repro.obs/1"
        names = series_names(snap)
        assert "engine_scenarios_total" in names
        assert "cache_lookups_total" in names
        # --telemetry implies profiling: stage histograms populate.
        assert "exec_stage_seconds" in names
        prom = (tel / "metrics.prom").read_text()
        assert "# TYPE engine_scenarios_total counter" in prom
        events = EventLog.read_jsonl(tel / "events.jsonl")
        kinds = [e.kind for e in events]
        assert kinds[0] == "batch_start"
        assert "batch_end" in kinds
        assert "cache_miss" in kinds
        assert "stage_timing" in kinds

    def test_run_writes_artifacts(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        argv = ["run", *FAST_SETS, "--set", "ground_lux=450",
                "--telemetry", str(tel)]
        assert main(argv) == 0
        for name in ("events.jsonl", "metrics.json", "metrics.prom"):
            assert (tel / name).exists(), name

    def test_telemetry_off_leaves_no_artifacts(self, tmp_path, capsys):
        argv = ["sweep", *FAST_SETS,
                "--axis", "ground_lux=450,100",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "telemetry written" not in capsys.readouterr().out


def stage_counts(snapshot):
    """``exec_stage_seconds`` label set -> sample count."""
    return {tuple(sorted(h["labels"].items())): h["count"]
            for h in snapshot["histograms"]
            if h["name"] == "exec_stage_seconds"}


class TestStageTimingFold:
    """Stage timing has one source: the runner's fold of the records a
    batch executed, in the parent process."""

    SEEDS = "seed=0,1,2,3,4,5"

    def sweep(self, tmp_path, name, *extra):
        tel = tmp_path / name
        argv = ["sweep", *FAST_SETS, "--set", "ground_lux=450",
                "--axis", self.SEEDS, *extra, "--telemetry", str(tel)]
        assert main(argv) == 0
        stages = [e for e in EventLog.read_jsonl(tel / "events.jsonl")
                  if e.kind == "stage_timing"]
        return stage_counts(load_snapshot(tel / "metrics.json")), stages

    def test_pooled_sweep_matches_serial_and_warm_rerun_is_silent(
            self, tmp_path, capsys):
        serial, serial_events = self.sweep(tmp_path, "w1", "--workers", "1")
        cache = str(tmp_path / "cache")
        pooled, pooled_events = self.sweep(tmp_path, "w2", "--workers", "2",
                                           "--cache-dir", cache)
        assert serial and set(serial.values()) == {6}
        assert pooled == serial
        assert ([e.fields["stage"] for e in pooled_events]
                == [e.fields["stage"] for e in serial_events])
        assert all(e.fields["n_profiled"] == 6 for e in pooled_events)

        capsys.readouterr()
        warm, warm_events = self.sweep(tmp_path, "warm", "--workers", "2",
                                       "--cache-dir", cache)
        assert "(6 cached [100%], 0 simulated" in capsys.readouterr().out
        assert warm == {}
        assert warm_events == []


class TestMetricsCommand:
    def sweep_with_telemetry(self, tmp_path):
        tel = tmp_path / "tel"
        main(["sweep", *FAST_SETS, "--axis", "ground_lux=450,100",
              "--cache-dir", str(tmp_path / "cache"),
              "--telemetry", str(tel)])
        return tel

    def test_renders_table_from_directory(self, tmp_path, capsys):
        tel = self.sweep_with_telemetry(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(tel)]) == 0
        out = capsys.readouterr().out
        assert "engine_scenarios_total" in out
        assert "histogram" in out

    def test_renders_table_from_file(self, tmp_path, capsys):
        tel = self.sweep_with_telemetry(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(tel / "metrics.json")]) == 0
        assert "cache_lookups_total" in capsys.readouterr().out

    def test_rejects_non_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workloads": []}))
        assert main(["metrics", str(bad)]) != 0
