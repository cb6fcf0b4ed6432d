"""Tests for the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from stats import (  # noqa: E402
    Tally,
    highest_reportable,
    nearest_rank,
    tail_percentile,
)
from tracing import Span, Tracer, covered_length, self_times  # noqa: E402

FAILURES = frozenset({"executor_error", "simulation_failed"})


# ----------------------------------------------------------------------
# The >=10-beyond percentile rule
# ----------------------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(1000)), 99.0) == 989
    assert nearest_rank(list(range(1000)), 99.0) == (989, 10)
    # One sample fewer leaves nine beyond: not a percentile.
    assert tail_percentile(list(range(999)), 99.0) is None


def test_p50_of_small_sample_is_reportable():
    values = [float(v) for v in range(25)]
    assert tail_percentile(values, 50.0) == 12.0
    assert tail_percentile(values, 90.0) is None


def test_highest_reportable_steps_down():
    values = [float(v) for v in range(200)]
    # 200 samples: p95 leaves 10 beyond, p99 only 2.
    assert highest_reportable(values) == (95.0, 189.0)
    assert highest_reportable([1.0] * 5) is None


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 300
    assert tail_percentile(values, 99.0) == 5.0


@pytest.mark.parametrize("pct", [0.0, -1.0, 100.5])
def test_percentile_range_is_checked(pct):
    with pytest.raises(ValueError):
        nearest_rank([1.0, 2.0], pct)


# ----------------------------------------------------------------------
# Self time with overlapping children
# ----------------------------------------------------------------------

def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert covered_length([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == 2.0
    assert covered_length([(3.0, 4.0), (1.0, 2.0)], 0.0, 10.0) == 2.0
    assert covered_length([], 0.0, 10.0) == 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span("batch", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("b", 3.0, 6.0, parent=0),     # overlaps a
             Span("c", 5.0, 5.5, parent=0),     # inside b
             Span("leaf", 1.5, 2.0, parent=1)]
    assert self_times(spans) == pytest.approx([5.0, 2.5, 3.0, 0.5, 0.5])


def test_self_time_ignores_child_outside_parent():
    spans = [Span("session", 0.0, 2.0), Span("late", 1.5, 3.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_nests_and_restores_wrapped_functions():
    class Layer:
        def work(self, n):
            return n * 2

    tracer = Tracer()
    tracer.wrap(Layer, "work", "layer.work")
    with tracer.span("outer", request="b0"):
        assert Layer().work(3) == 6
    tracer.unwrap_all()
    assert Layer().work(4) == 8
    assert [s.name for s in tracer.spans] == ["outer", "layer.work"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].request == "b0"
    assert tracer.busy("layer.") == pytest.approx(tracer.spans[1].duration)
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(
        tracer.spans[0].duration - tracer.spans[1].duration)


# ----------------------------------------------------------------------
# fail_ratio counting
# ----------------------------------------------------------------------

def test_physics_failure_is_a_result():
    tally = Tally(failure_stages=FAILURES)
    tally.record("preamble_not_found", matches=True)
    tally.record("decoded", matches=True)
    assert (tally.attempted, tally.failed, tally.physics_verdicts) == (2, 0, 1)
    assert tally.fail_ratio == 0.0


def test_executor_failure_counts_even_without_reference():
    tally = Tally(failure_stages=FAILURES)
    tally.record("executor_error", matches=False)
    tally.record("simulation_failed", matches=True)
    assert tally.executor_errors == 2
    assert tally.mismatches == 0
    assert tally.fail_ratio == 1.0


def test_mismatch_counts_whatever_the_stage():
    tally = Tally(failure_stages=FAILURES)
    tally.record("decoded", matches=False)
    tally.record("bit_errors", matches=False)
    tally.record("decoded", matches=True)
    tally.record("decoded", matches=True)
    assert tally.mismatches == 2
    assert tally.fail_ratio == 0.5


def test_failed_session_counts_once():
    tally = Tally(failure_stages=FAILURES)
    tally.session(failed=True, stage="", matches=False)
    tally.session(failed=False, stage="preamble_not_found", matches=True)
    tally.session(failed=False, stage="decoded", matches=False)
    assert (tally.session_failures, tally.mismatches,
            tally.physics_verdicts) == (1, 1, 1)
    assert tally.failed == 2
    assert tally.to_dict()["fail_ratio"] == pytest.approx(2 / 3)


def test_empty_tally_has_zero_ratio():
    assert Tally().fail_ratio == 0.0
