"""Tests for repro.perf — the tracked performance harness.

Timing *values* are machine noise, so these tests pin everything else:
suite mechanics (warmup/repeat accounting, selection, stats), report
serialization, the committed-baseline comparison logic, and the
``repro-engine bench`` CLI wiring.
"""

import json
from pathlib import Path

import pytest

from repro.engine.cli import main as cli_main
from repro.perf import (
    DEFAULT_BASELINE_PATH,
    PerfReport,
    Workload,
    WorkloadTiming,
    compare_reports,
    default_workloads,
    format_comparisons,
    load_report,
    run_suite,
    save_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tiny_workloads(log):
    def make(name, kind):
        def setup(quick):
            log.append((name, "setup", quick))
            return lambda: log.append((name, "run", quick))

        return Workload(name=name, kind=kind, description=f"{name} noop",
                        setup=setup, repeats=3, quick_repeats=2, warmup=1)

    return [make("alpha", "micro"), make("beta", "macro")]


class TestSuiteMechanics:
    def test_warmup_and_repeats_accounting(self):
        log = []
        report = run_suite(workloads=_tiny_workloads(log))
        assert [r.name for r in report.results] == ["alpha", "beta"]
        assert all(r.repeats == 3 for r in report.results)
        # 1 setup + 1 warmup run + 3 timed runs per workload.
        assert log.count(("alpha", "setup", False)) == 1
        assert log.count(("alpha", "run", False)) == 4

    def test_quick_mode_uses_quick_repeats(self):
        log = []
        report = run_suite(quick=True, workloads=_tiny_workloads(log))
        assert report.quick
        assert all(r.repeats == 2 for r in report.results)
        assert log.count(("beta", "run", True)) == 3

    def test_name_selection_and_unknown_rejected(self):
        log = []
        report = run_suite(workloads=_tiny_workloads(log), names=["beta"])
        assert [r.name for r in report.results] == ["beta"]
        with pytest.raises(KeyError):
            run_suite(workloads=_tiny_workloads(log), names=["gamma"])

    def test_repeats_override(self):
        log = []
        report = run_suite(workloads=_tiny_workloads(log), repeats=1)
        assert all(r.repeats == 1 for r in report.results)

    def test_injected_clock_gives_deterministic_times(self):
        ticks = iter(range(100))
        log = []
        report = run_suite(workloads=_tiny_workloads(log), repeats=2,
                           clock=lambda: float(next(ticks)))
        for timing in report.results:
            assert timing.times_s == [1.0, 1.0]
            assert timing.median_s == 1.0
            assert timing.stddev_s == 0.0

    def test_environment_meta_recorded(self):
        report = run_suite(workloads=_tiny_workloads([]), repeats=1)
        assert {"python", "numpy", "scipy",
                "cpu_count"} <= report.meta.keys()


class TestStats:
    def test_summary_statistics(self):
        timing = WorkloadTiming(name="w", kind="micro", description="",
                                warmup=0, times_s=[2.0, 1.0, 4.0])
        assert timing.median_s == 2.0
        assert timing.mean_s == pytest.approx(7.0 / 3.0)
        assert timing.min_s == 1.0
        assert timing.max_s == 4.0
        assert timing.stddev_s > 0.0

    def test_json_round_trip(self, tmp_path):
        report = PerfReport(
            results=[WorkloadTiming(name="w", kind="macro",
                                    description="d", warmup=2,
                                    times_s=[0.5, 0.25])],
            quick=True, meta={"python": "3.x"})
        path = save_report(report, tmp_path / "BENCH_perf.json")
        loaded = load_report(path)
        assert loaded.to_dict() == report.to_dict()
        # The artifact itself is machine-readable JSON with the stats
        # the acceptance criteria name.
        raw = json.loads(path.read_text())
        assert raw["workloads"][0]["median_s"] == 0.375
        assert "stddev_s" in raw["workloads"][0]


def _report(medians, quick=True):
    return PerfReport(
        results=[WorkloadTiming(name=name, kind="micro", description="",
                                warmup=0, times_s=[m])
                 for name, m in medians.items()],
        quick=quick)


class TestBaselineComparison:
    def test_regression_flagged_above_tolerance(self):
        baseline = _report({"w": 1.0})
        comparisons = compare_reports(_report({"w": 1.3}), baseline,
                                      tolerance=0.25)
        assert comparisons[0].regressed
        assert comparisons[0].ratio == pytest.approx(1.3)

    def test_within_tolerance_and_improvement_pass(self):
        baseline = _report({"w": 1.0})
        for median in (1.2, 0.5, 1.0):
            (comp,) = compare_reports(_report({"w": median}), baseline,
                                      tolerance=0.25)
            assert not comp.regressed

    def test_missing_workload_is_new_not_regressed(self):
        comparisons = compare_reports(_report({"new_w": 1.0}),
                                      _report({"other": 1.0}))
        assert comparisons[0].baseline_median_s is None
        assert not comparisons[0].regressed
        assert "new" in format_comparisons(comparisons, 0.25)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(_report({"w": 1.0}), _report({"w": 1.0}),
                            tolerance=-0.1)

    def test_committed_baseline_is_valid_and_complete(self):
        """The repo ships a quick-mode baseline covering every tracked
        workload (the CI regression gate depends on it)."""
        baseline = load_report(REPO_ROOT / DEFAULT_BASELINE_PATH)
        assert baseline.quick
        names = {t.name for t in baseline.results}
        expected = {w.name for w in default_workloads()}
        assert expected <= names
        assert len(expected) >= 4
        for timing in baseline.results:
            assert timing.median_s > 0.0

    def test_default_baseline_found_from_any_cwd(self, tmp_path,
                                                 monkeypatch):
        """bench run outside the repo root must still find the
        committed baseline (via the checkout this module lives in)."""
        from repro.perf import default_baseline_path

        monkeypatch.chdir(tmp_path)
        resolved = default_baseline_path()
        assert resolved.exists()
        assert load_report(resolved).results

    def test_committed_bench_artifact_is_valid(self):
        report = load_report(REPO_ROOT / "BENCH_perf.json")
        assert len(report.results) >= 4
        for timing in report.results:
            assert timing.median_s > 0.0 and timing.stddev_s >= 0.0


class TestBenchCli:
    def _bench(self, tmp_path, *extra):
        out = tmp_path / "BENCH_perf.json"
        argv = ["bench", "--quick", "--repeats", "1",
                "--workload", "engine_batch", "--out", str(out), *extra]
        return cli_main(argv), out

    def test_writes_report_and_succeeds_without_baseline(self, tmp_path,
                                                         capsys):
        code, out = self._bench(tmp_path,
                                "--baseline", str(tmp_path / "missing.json"))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["workloads"][0]["name"] == "engine_batch"
        assert "skipping comparison" in capsys.readouterr().out

    def test_update_baseline_then_compare_passes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        code, _ = self._bench(tmp_path, "--baseline", str(baseline),
                              "--update-baseline")
        assert code == 0 and baseline.exists()
        # Generous tolerance: only the exit-code plumbing is under test.
        code, _ = self._bench(tmp_path, "--baseline", str(baseline),
                              "--tolerance", "1000")
        assert code == 0

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        save_report(_report({"engine_batch": 1e-9}), baseline)
        code, _ = self._bench(tmp_path, "--baseline", str(baseline))
        assert code == 1
        assert "PERF REGRESSION" in capsys.readouterr().err

    def test_mode_mismatch_skips_comparison(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        save_report(_report({"engine_batch": 1e-9}, quick=False), baseline)
        code, _ = self._bench(tmp_path, "--baseline", str(baseline))
        assert code == 0
        assert "skipping comparison" in capsys.readouterr().out

    def test_list_workloads(self, capsys):
        assert cli_main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for workload in default_workloads():
            assert workload.name in out


def _timed(name, median, extras=None):
    return WorkloadTiming(name=name, kind="macro", description="",
                          warmup=0, times_s=[median],
                          extras=dict(extras or {}))


class TestMissingWorkloadGate:
    """A baseline workload absent from the current run must FAIL the
    gate — a deleted (or typo'd) workload must never read as green."""

    def test_missing_workload_regresses(self):
        baseline = _report({"engine_batch": 1.0, "tensor_batch": 1.0})
        comparisons = compare_reports(_report({"engine_batch": 1.0}),
                                      baseline)
        missing = [c for c in comparisons if c.name == "tensor_batch"]
        assert len(missing) == 1
        assert missing[0].regressed
        assert missing[0].current_median_s is None
        assert missing[0].baseline_median_s == 1.0
        assert "MISSING" in format_comparisons(comparisons, 0.25)

    def test_names_filter_limits_required_set(self):
        baseline = _report({"engine_batch": 1.0, "tensor_batch": 1.0})
        comparisons = compare_reports(_report({"engine_batch": 1.0}),
                                      baseline, names=["engine_batch"])
        assert all(not c.regressed for c in comparisons)
        assert [c.name for c in comparisons] == ["engine_batch"]

    def test_bench_cli_fails_on_missing_workload(self, tmp_path, capsys):
        """End-to-end: full-baseline + subset-free current run without
        the baseline's extra workload exits nonzero."""
        from repro.perf import run_suite

        baseline_path = tmp_path / "baseline.json"
        baseline = _report({"engine_batch": 1.0,
                            "some_deleted_workload": 1.0})
        save_report(baseline, baseline_path)
        out = tmp_path / "report.json"
        code = cli_main(["bench", "--quick", "--repeats", "1",
                         "--workload", "engine_batch",
                         "--workload", "some_deleted_workload",
                         "--out", str(out),
                         "--baseline", str(baseline_path),
                         "--tolerance", "1000"])
        # run_suite raises KeyError for the unknown workload -> exit 2;
        # drop the selection instead and rely on the names filter.
        assert code == 2

        code = cli_main(["bench", "--quick", "--repeats", "1",
                         "--out", str(out),
                         "--baseline", str(baseline_path),
                         "--tolerance", "1000"])
        assert code == 1
        captured = capsys.readouterr()
        assert "some_deleted_workload" in captured.err
        assert "MISSING" in captured.out


class TestExtrasMetrics:
    def test_extras_round_trip(self, tmp_path):
        report = PerfReport(results=[_timed(
            "w", 0.5, {"scenarios_per_s": 24.0, "peak_rss_mb": 310.0})],
            quick=True)
        loaded = load_report(save_report(report, tmp_path / "r.json"))
        assert loaded.results[0].extras == {"scenarios_per_s": 24.0,
                                            "peak_rss_mb": 310.0}
        assert loaded.to_dict() == report.to_dict()

    def test_throughput_drop_regresses(self):
        baseline = PerfReport(results=[_timed(
            "w", 1.0, {"scenarios_per_s": 100.0})], quick=True)
        current = PerfReport(results=[_timed(
            "w", 1.0, {"scenarios_per_s": 60.0})], quick=True)
        comparisons = compare_reports(current, baseline, tolerance=0.25)
        metric = [c for c in comparisons if c.metric == "scenarios_per_s"]
        assert len(metric) == 1
        assert metric[0].regressed           # 0.6 < 1/1.25
        assert metric[0].name == "w:scenarios_per_s"

    def test_throughput_gain_and_small_drop_pass(self):
        baseline = PerfReport(results=[_timed(
            "w", 1.0, {"scenarios_per_s": 100.0})], quick=True)
        for value in (150.0, 90.0, 100.0):
            current = PerfReport(results=[_timed(
                "w", 1.0, {"scenarios_per_s": value})], quick=True)
            (metric,) = [c for c in compare_reports(current, baseline,
                                                    tolerance=0.25)
                         if c.metric is not None]
            assert not metric.regressed

    def test_peak_rss_gets_generous_tolerance(self):
        from repro.perf.baseline import RSS_TOLERANCE

        baseline = PerfReport(results=[_timed(
            "w", 1.0, {"peak_rss_mb": 100.0})], quick=True)
        ok = PerfReport(results=[_timed(
            "w", 1.0, {"peak_rss_mb": 100.0 * (1.0 + RSS_TOLERANCE)})],
            quick=True)
        bad = PerfReport(results=[_timed(
            "w", 1.0, {"peak_rss_mb": 100.0 * (1.9 + RSS_TOLERANCE)})],
            quick=True)
        (c_ok,) = [c for c in compare_reports(ok, baseline, tolerance=0.1)
                   if c.metric is not None]
        (c_bad,) = [c for c in compare_reports(bad, baseline,
                                               tolerance=0.1)
                    if c.metric is not None]
        assert not c_ok.regressed
        assert c_bad.regressed

    def test_suite_populates_tensor_extras(self):
        """A real quick run of the tensor workloads derives throughput
        extras from the measured median."""
        from repro.perf import run_suite

        report = run_suite(quick=True, names=["tensor_batch"], repeats=1)
        extras = report.results[0].extras
        assert extras["scenarios_per_s"] > 0.0
        assert extras["ksamples_per_s_core"] > 0.0
        assert extras.get("peak_rss_mb", 1.0) > 0.0


class TestProfiledBench:
    """--profile adds stage medians as extras without touching the
    gated metrics (the timing repeats themselves run unprofiled)."""

    def _scenario_workload(self):
        from repro.engine.executor import execute_scenario
        from repro.engine.spec import ScenarioSpec

        def setup(quick):
            spec = ScenarioSpec(
                source="sun", detector="led", cap=False, ground="tarmac",
                bits="00", symbol_width_m=0.1, speed_mps=5.0,
                receiver_height_m=0.25, start_position_m=-1.5,
                sample_rate_hz=2000.0, ground_lux=450.0, seed=3)
            return lambda: execute_scenario(spec)

        return Workload(name="one_scenario", kind="macro",
                        description="single serial scenario", setup=setup,
                        repeats=1, quick_repeats=1, warmup=0)

    def test_stage_extras_recorded(self):
        report = run_suite(workloads=[self._scenario_workload()],
                           repeats=1, profile=True)
        extras = report.results[0].extras
        stage_keys = {k for k in extras if k.startswith("stage_")}
        assert {"stage_build_s", "stage_simulate_s",
                "stage_decide_s"} <= stage_keys
        assert all(extras[k] >= 0.0 for k in stage_keys)
        # The gated timing repeats stay unprofiled and unchanged.
        assert len(report.results[0].times_s) == 1

    def test_no_profile_means_no_stage_extras(self):
        report = run_suite(workloads=[self._scenario_workload()],
                           repeats=1)
        assert not any(k.startswith("stage_")
                       for k in report.results[0].extras)

    def test_stage_extras_never_gate_against_old_baselines(self):
        current = _report({"engine_batch": 1.0})
        current.results[0].extras["stage_decide_s"] = 0.5
        baseline = _report({"engine_batch": 1.0})
        comparisons = compare_reports(current, baseline)
        assert all(not c.regressed for c in comparisons)

    def test_profile_tolerates_traceless_thunks(self):
        log = []
        report = run_suite(workloads=_tiny_workloads(log), repeats=1,
                           profile=True)
        for timing in report.results:
            assert not any(k.startswith("stage_") for k in timing.extras)


class TestStageMedians:
    """Satellite: stage medians are a first-class, printed, diffable
    block — not just print-and-forget extras."""

    def _timing(self, extras):
        return WorkloadTiming(name="w", kind="macro", description="",
                              warmup=0, times_s=[1.0], extras=extras)

    def test_stage_medians_derived_from_extras(self):
        timing = self._timing({"stage_build_s": 0.002,
                               "stage_decide_s": 0.001,
                               "scenarios_per_s": 42.0})
        assert timing.stage_medians_s == {"build": 0.002, "decide": 0.001}

    def test_no_stage_extras_means_empty(self):
        assert self._timing({"scenarios_per_s": 42.0}).stage_medians_s == {}

    def test_to_dict_has_first_class_stages_block(self):
        timing = self._timing({"stage_build_s": 0.002})
        data = timing.to_dict()
        assert data["stages"] == {"build": 0.002}
        # Unprofiled timings keep the block absent, not empty.
        assert "stages" not in self._timing({}).to_dict()

    def test_stages_block_round_trips_via_extras(self, tmp_path):
        report = PerfReport(results=[self._timing({"stage_build_s": 0.5})])
        path = save_report(report, tmp_path / "report.json")
        loaded = load_report(path)
        assert loaded.results[0].stage_medians_s == {"build": 0.5}
        assert json.loads(path.read_text())["workloads"][0]["stages"] == \
            {"build": 0.5}

    def test_stage_regressions_gate_when_in_both_reports(self):
        current = _report({"engine_batch": 1.0})
        current.results[0].extras["stage_decide_s"] = 1.0
        baseline = _report({"engine_batch": 1.0})
        baseline.results[0].extras["stage_decide_s"] = 0.5
        comparisons = compare_reports(current, baseline)
        regressed = [c.name for c in comparisons if c.regressed]
        assert regressed == ["engine_batch:stage_decide_s"]

    def test_format_stage_medians_table(self):
        from repro.perf import format_stage_medians

        report = PerfReport(results=[
            self._timing({"stage_build_s": 0.001, "stage_decide_s": 0.003})])
        table = format_stage_medians(report)
        assert "build" in table and "decide" in table
        assert "75.0%" in table  # 0.003 of 0.004
        assert format_stage_medians(PerfReport()) == ""

    def test_bench_cli_prints_stage_table(self, tmp_path, capsys):
        code = cli_main(["bench", "--quick", "--repeats", "1",
                         "--workload", "engine_batch", "--profile",
                         "--out", str(tmp_path / "r.json"),
                         "--baseline", str(tmp_path / "none.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "stage medians (profiled passes):" in out
        assert "simulate" in out
        saved = json.loads((tmp_path / "r.json").read_text())
        assert "simulate" in saved["workloads"][0]["stages"]
