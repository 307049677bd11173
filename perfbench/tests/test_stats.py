"""Nearest-rank percentiles and the "at least ten beyond" rule."""

import pytest

from perfbench.stats import (
    beyond,
    geomean,
    highest_reportable,
    percentile,
    rank,
)


def test_rank_uses_exact_integer_arithmetic():
    # 0.9 * 100 is 90.00000000000001 in floating point; the rank is 90.
    assert rank(100, 90) == 90
    assert rank(134, 90) == 121
    assert rank(128, 90) == 116
    assert rank(134, 50) == 67
    assert rank(1, 1) == 1


def test_percentile_returns_a_measured_sample():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 90) == 5
    assert percentile(values, 20) == 1
    assert percentile([7.5], 90) == 7.5


@pytest.mark.parametrize("n, pct, expected", [
    (134, 90, 13),      # fig7_campaign: 134 jobs
    (128, 90, 12),      # open_fib16: 128 jobs
    (100, 90, 10),
    (99, 90, 9),
    (4, 90, 0),
])
def test_samples_beyond(n, pct, expected):
    assert beyond(n, pct) == expected


def test_highest_reportable_needs_ten_beyond():
    assert highest_reportable(134) == 90
    assert highest_reportable(1000) == 99
    assert highest_reportable(200) == 95
    assert highest_reportable(99) == 50
    assert highest_reportable(19) is None
    assert highest_reportable(20) == 50


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        rank(10, 0)
    with pytest.raises(ValueError):
        rank(10, 101)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
