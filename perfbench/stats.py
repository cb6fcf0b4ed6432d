"""The benchmark's own arithmetic: percentiles and failure counts.

Kept free of any workload logic so the rules the benchmark reports by
can be tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> tuple[float, int]:
    """The ``pct``-th percentile by nearest rank, and how many samples
    rank above it.

    Raises:
        ValueError: on an empty sample or a percentile outside (0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values: Sequence[float], pct: float,
                    min_beyond: int = MIN_BEYOND) -> float | None:
    """The ``pct``-th percentile, or None when fewer than ``min_beyond``
    samples lie beyond it (a tail that thin is a single outlier, not a
    percentile)."""
    if not values:
        return None
    value, beyond = nearest_rank(values, pct)
    return value if beyond >= min_beyond else None


def highest_reportable(values: Sequence[float],
                       candidates: Iterable[float] = (99.9, 99.0, 95.0,
                                                      90.0, 75.0, 50.0),
                       min_beyond: int = MIN_BEYOND,
                       ) -> tuple[float, float] | None:
    """``(pct, value)`` for the highest candidate percentile that has at
    least ``min_beyond`` samples beyond it, or None."""
    for pct in sorted(candidates, reverse=True):
        value = tail_percentile(values, pct, min_beyond)
        if value is not None:
            return pct, value
    return None


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


@dataclass
class Tally:
    """Operations attempted and failed, by cause.

    A failure is an operation the system did not answer correctly: a
    record that died outside the physics (``failure_stages``), a result
    that differs from its reference, or a streaming session that was
    poisoned or timed out.  A physics verdict such as
    ``preamble_not_found`` that matches its reference is a result and
    is only counted in ``physics_verdicts``.
    """

    failure_stages: frozenset[str] = field(default_factory=frozenset)
    attempted: int = 0
    mismatches: int = 0
    executor_errors: int = 0
    session_failures: int = 0
    physics_verdicts: int = 0

    @property
    def failed(self) -> int:
        return self.mismatches + self.executor_errors + self.session_failures

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, stage: str, matches: bool) -> None:
        """Count one scenario record against its reference."""
        self.attempted += 1
        if stage in self.failure_stages:
            self.executor_errors += 1
        elif not matches:
            self.mismatches += 1
        elif stage != "decoded":
            self.physics_verdicts += 1

    def session(self, failed: bool, stage: str, matches: bool) -> None:
        """Count one streaming session against its offline reference."""
        self.attempted += 1
        if failed:
            self.session_failures += 1
        elif not matches:
            self.mismatches += 1
        elif stage != "decoded":
            self.physics_verdicts += 1

    def to_dict(self) -> dict[str, float | int]:
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_ratio": self.fail_ratio,
                "mismatches": self.mismatches,
                "executor_errors": self.executor_errors,
                "session_failures": self.session_failures,
                "physics_verdicts": self.physics_verdicts}
