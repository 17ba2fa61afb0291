"""Tests for the weighted sample container."""

from __future__ import annotations

import numpy as np
import pytest

from dispersim.samples import Sample, unit_scaled


def test_default_weights_are_unit():
    s = Sample(np.array([3.0, 1.0, 2.0]))
    np.testing.assert_array_equal(s.weights, [1.0, 1.0, 1.0])
    assert s.size == 3
    assert s.total_weight == 3.0


def test_total_weight_is_the_exact_sum_rounded_once():
    # the second total lies past the float range: inf, with no overflow
    # warning, which pytest would turn into an error
    assert Sample(np.array([1.0, 2.0]), np.array([1e308, 5e307])).total_weight == 1.5e308
    assert Sample(np.array([1.0, 2.0, 3.0]), np.full(3, 1e308)).total_weight == np.inf


def test_one_group_is_scaled_as_the_grouped_path_scales_it():
    x = np.array([3e-310, 0.75, 5e-324, 1e308, 2.0])
    scaled, exponents = unit_scaled(x)
    grouped, grouped_exponents = unit_scaled(x, np.array([0, x.size]))
    assert scaled.tobytes() == grouped.tobytes()
    assert exponents.tolist() == grouped_exponents.tolist() == [1024]


def test_empty_sample_is_allowed():
    s = Sample(np.array([]))
    assert s.size == 0
    assert s.total_weight == 0.0


def test_validation():
    with pytest.raises(ValueError):
        Sample(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        Sample(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Sample(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Sample(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Sample(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Sample(np.array([1.0, 2.0]), np.array([1.0, -2.0]))


def test_sorted_keeps_weights_aligned_and_is_stable():
    s = Sample(np.array([2.0, 1.0, 2.0]), np.array([5.0, 6.0, 7.0]))
    out = s.sorted()
    np.testing.assert_array_equal(out.values, [1.0, 2.0, 2.0])
    # ties preserve input order, so weight 5 stays ahead of weight 7
    np.testing.assert_array_equal(out.weights, [6.0, 5.0, 7.0])


def test_negative_values_are_fine():
    s = Sample(np.array([-3.0, 0.0, 3.0]))
    assert s.sorted().values[0] == -3.0


@pytest.mark.parametrize("values", [
    np.random.default_rng(0).laplace(1.0, 0.2, 5000),
    np.round(np.random.default_rng(1).laplace(1.0, 0.2, 5000), 2),
    np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0]),
    np.array([3.0]),
    np.array([]),
], ids=["distinct", "ties", "signed-zeros", "one", "empty"])
def test_sorted_is_the_stable_argsort_order(values):
    weights = np.arange(1.0, values.size + 1.0)
    order = np.argsort(values, kind="stable")
    out = Sample(values, weights).sorted()
    np.testing.assert_array_equal(out.weights, weights[order])
    np.testing.assert_array_equal(np.signbit(out.values), np.signbit(values[order]))
    np.testing.assert_array_equal(out.values, values[order])


def test_array_records_compare_by_identity_and_hash():
    from dispersim.dataio import NormalizedGroups, TransactionTable
    from dispersim.fixedpoint import FixedPointResult
    from dispersim.grids import GriddedDistribution
    from dispersim.kinetic import MarketState, SimResult
    from dispersim.meanprice import EnsembleResult
    from dispersim.quasistatic import SupplyDemandCurves

    for record in (Sample, TransactionTable, NormalizedGroups, GriddedDistribution,
                   SupplyDemandCurves, MarketState, SimResult, EnsembleResult,
                   FixedPointResult):
        assert record.__eq__ is object.__eq__ and record.__hash__ is object.__hash__
    # equal arrays would make a field-wise == ambiguous, so records are distinct
    a, b = Sample(np.array([1.0, 2.0])), Sample(np.array([1.0, 2.0]))
    assert a == a and a != b
    grid = np.linspace(0.0, 1.0, 5)
    law = GriddedDistribution.from_density(grid, np.ones(5))
    assert law != GriddedDistribution.from_density(grid, np.ones(5))
    assert len({a, b, a, law}) == 3
