"""Property tests: the column-wise sweep reductions are bit-identical to
the per-index generator code they replaced.

``combine_series`` and a series sweep's pointwise variance transpose the
per-seed matrix once with ``zip`` instead of indexing every series per
point.  The additions are the same, in the same left-to-right seed
order, so every double must come out the same; the reference copies
below are the old code verbatim.  Comparisons go through
``struct.pack`` so that a NaN produced by overflowing inputs counts as
equal to itself.
"""

import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.api import SweepSpec
from repro.simulation.results import SeriesResult
from repro.simulation.runner import combine_series
from repro.simulation.sweep import _assemble, _SweepPlan

SCENARIO = "fig15-environment"  # a series scenario

# Every finite double, plus the edge values a draw may miss: signed
# zeros, the smallest subnormals and the largest normal.
_EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
])
_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), _EDGES,
)


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    """A seeds x points float matrix (every row the same length)."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=0, max_value=max_cols))
    return [
        draw(st.lists(_DOUBLES, min_size=cols, max_size=cols))
        for _ in range(rows)
    ]


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def _outcome(reduce):
    """The bits of a ``(mean, variance)`` pair, or the error raised.

    Squaring a deviation beyond ~1.3e154 raises ``OverflowError``; the
    old code and the new must then both raise it.
    """
    try:
        mean, variance = reduce()
    except OverflowError:
        return OverflowError
    return _bits(mean), _bits(variance)


def _series(matrix):
    return [SeriesResult("curve", list(row)) for row in matrix]


# -- the reductions as they were: one generator per point ------------------

def _reference_combine(results):
    lengths = {len(r.values) for r in results}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ across seeds: {lengths}")
    length = lengths.pop()
    return [
        sum(r.values[i] for r in results) / len(results)
        for i in range(length)
    ]


def _reference_variance(values):
    count = len(values)
    mean = sum(values) / count
    return sum((value - mean) ** 2 for value in values) / count


def _reference_pointwise_variance(per_seed, length):
    return [
        _reference_variance([series.values[i] for series in per_seed])
        for i in range(length)
    ]


def _assemble_series(per_seed):
    """A series sweep's :class:`SweepResult`, reduced by ``_assemble``."""
    seeds = list(range(1, len(per_seed) + 1))
    plan = _SweepPlan(
        spec=SweepSpec(SCENARIO, seeds, smoke=True),
        params=(),
        cache=None,
        keys={},
        collected=dict(zip(seeds, per_seed)),
        missing=[],
    )
    return _assemble(plan, None)


_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestColumnWiseReductions:
    @_SETTINGS
    @given(matrix=matrices())
    def test_combine_series_matches_the_per_index_sums(self, matrix):
        per_seed = _series(matrix)
        combined = combine_series(per_seed)
        assert combined.label == "curve"
        assert _bits(combined.values) == _bits(_reference_combine(per_seed))

    @_SETTINGS
    @given(matrix=matrices())
    def test_sweep_mean_and_variance_match_the_per_index_code(self, matrix):
        per_seed = _series(matrix)
        expected = _outcome(lambda: (
            _reference_combine(per_seed),
            _reference_pointwise_variance(per_seed, len(matrix[0])),
        ))

        def reduce():
            sweep = _assemble_series(per_seed)
            return sweep.mean.values, sweep.variance

        assert _outcome(reduce) == expected

    @_SETTINGS
    @given(
        lengths=st.lists(
            st.integers(min_value=0, max_value=5), min_size=2, max_size=6,
        ).filter(lambda lengths: len(set(lengths)) > 1),
    )
    def test_ragged_series_still_raise_the_same_error(self, lengths):
        per_seed = [SeriesResult("curve", [1.5] * n) for n in lengths]
        with pytest.raises(ValueError) as expected:
            _reference_combine(per_seed)
        with pytest.raises(ValueError) as combined:
            combine_series(per_seed)
        with pytest.raises(ValueError) as assembled:
            _assemble_series(per_seed)
        assert str(combined.value) == str(expected.value)
        assert str(assembled.value) == str(expected.value)
