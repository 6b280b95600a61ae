"""Repeat-and-average helpers for multi-seed simulation runs.

The module-level :func:`average_rates` / :func:`average_series` run
strictly sequentially and are the *oracle* the parallel runtime
(:mod:`repro.simulation.parallel`) is tested against.  Both paths share
:func:`combine_rates` / :func:`combine_series`, so the floating-point
reduction order — and therefore the result, bit for bit — is identical
no matter how the per-seed results were produced.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.simulation.results import RateSummary, SeriesResult


def combine_rates(results: Sequence[RateSummary]) -> RateSummary:
    """Average per-seed rate summaries (seed order, left-to-right sums)."""
    if not results:
        raise ValueError("need at least one result")
    count = len(results)
    return RateSummary(
        success_rate=sum(r.success_rate for r in results) / count,
        unavailable_rate=sum(r.unavailable_rate for r in results) / count,
        abuse_rate=sum(r.abuse_rate for r in results) / count,
        total_requests=sum(r.total_requests for r in results),
    )


def combine_series(results: Sequence[SeriesResult]) -> SeriesResult:
    """Average per-seed series pointwise (seed order, left-to-right sums).

    All series must have equal length; ragged inputs are rejected.
    """
    if not results:
        raise ValueError("need at least one result")
    lengths = {len(r.values) for r in results}
    # Checked before the transpose: zip() would truncate silently.
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ across seeds: {lengths}")
    count = len(results)
    averaged = [
        sum(column) / count
        for column in zip(*(r.values for r in results))
    ]
    return SeriesResult(label=results[0].label, values=averaged)


def average_rates(
    run: Callable[[int], RateSummary], seeds: Sequence[int]
) -> RateSummary:
    """Run a rate-producing simulation per seed and average the rates."""
    if not seeds:
        raise ValueError("need at least one seed")
    results = [run(seed) for seed in seeds]
    return combine_rates(results)


def average_series(
    run: Callable[[int], SeriesResult], seeds: Sequence[int]
) -> SeriesResult:
    """Run a series-producing simulation per seed and average pointwise.

    All runs must produce series of equal length.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    results: List[SeriesResult] = [run(seed) for seed in seeds]
    return combine_series(results)
