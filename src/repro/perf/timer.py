"""Wall-clock timing primitives for the bench harness.

Best-of-N timing on a monotonic clock: the *minimum* over repeats is the
standard low-noise estimator for CPU microbenchmarks (system jitter only
ever adds time), and it is what the wall-clock bench contracts bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class TimingResult:
    """Timing of one callable over several repeats.

    Attributes:
        best_ms: Minimum wall time over all timed repeats (the headline).
        mean_ms: Mean wall time over all timed repeats.
        repeats: Number of timed repeats.
    """

    best_ms: float
    mean_ms: float
    repeats: int


def time_callable(
    fn: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
) -> TimingResult:
    """Time ``fn()`` with warmup and best-of-N repeats.

    Args:
        fn: Zero-argument callable to time (its return value is discarded).
        repeats: Timed repeats (>= 1).
        warmup: Untimed warmup calls (populates caches, e.g. the integer
            model's frozen weight plans).

    Returns:
        A :class:`TimingResult` with best/mean milliseconds.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return TimingResult(
        best_ms=min(samples),
        mean_ms=sum(samples) / len(samples),
        repeats=repeats,
    )
