"""Tests for the instantaneous sales-price density and book geometry."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dispersim.errors import NoIntercept, ZeroSalesVolume
from dispersim.grids import GriddedDistribution, trapezoid, uniform_grid
from dispersim.quasistatic import (
    SupplyDemandCurves,
    intercept_price,
    quasi_static_density,
    total_sales_rate,
)


def _uniform_books(n=20001):
    grid = uniform_grid(0.0, 1.0, n)
    ask = GriddedDistribution.from_density(grid, np.ones(n))
    bid = GriddedDistribution.from_density(grid, np.ones(n))
    return grid, ask, bid


def test_uniform_books_give_parabolic_sales_density():
    grid, ask, bid = _uniform_books()
    dist, sigma_norm = quasi_static_density(ask.cumulative, bid.cumulative, grid)
    assert sigma_norm == pytest.approx(1.0 / 6.0, abs=1e-9)
    target = 6.0 * grid * (1.0 - grid)
    assert np.max(np.abs(dist.density - target)) < 1e-6


def test_density_is_normalized_and_vanishes_at_edges():
    grid, ask, bid = _uniform_books(2001)
    dist, _ = quasi_static_density(ask.cumulative, bid.cumulative, grid)
    assert trapezoid(dist.density, grid) == pytest.approx(1.0, abs=1e-12)
    assert dist.density[0] == 0.0
    assert dist.density[-1] == 0.0


def test_raw_arrays_require_a_grid():
    grid, ask, _ = _uniform_books(101)
    with pytest.raises(TypeError):
        quasi_static_density(ask.cumulative, ask.cumulative)


def test_a_grid_that_does_not_carry_the_books_is_rejected():
    ok = np.linspace(0.0, 1.0, 11)
    # a 3-node grid beside two 11-node books
    with pytest.raises(ValueError, match="match the grid shape"):
        quasi_static_density(ok, ok, uniform_grid(5.0, 9.0, 3))
    # a decreasing grid is a wrong argument, not a market without sales
    with pytest.raises(ValueError, match="strictly increasing"):
        quasi_static_density(ok, ok, ok[::-1].copy())


def test_invalid_cumulative_is_rejected():
    grid = uniform_grid(0.0, 1.0, 5)
    decreasing = np.array([0.0, 0.5, 0.4, 0.8, 1.0])
    ok = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        quasi_static_density(decreasing, ok, grid=grid)


def test_non_finite_raw_cumulative_is_rejected():
    grid = uniform_grid(0.0, 1.0, 5)
    ok = np.linspace(0.0, 1.0, 5)
    with_nan = np.array([0.0, 0.25, np.nan, 0.75, 1.0])
    with pytest.raises(ValueError, match="finite"):
        quasi_static_density(with_nan, ok, grid=grid)
    with pytest.raises(ValueError, match="finite"):
        quasi_static_density(ok, with_nan, grid=grid)


def test_disjoint_books_have_no_sales():
    grid = uniform_grid(0.0, 1.0, 101)
    # all offers above 0.9, all bids below 0.1: no price has both a willing
    # buyer and a willing seller
    supply_cum = np.clip((grid - 0.9) / 0.1, 0.0, 1.0)
    demand_cum = np.clip(grid / 0.1, 0.0, 1.0)
    with pytest.raises(ZeroSalesVolume):
        quasi_static_density(supply_cum, demand_cum, grid=grid)


def test_inactive_demand_book_reduces_to_supply_side():
    grid = uniform_grid(0.0, 1.0, 5001)
    supply_cum = grid.copy()
    # every bid sits above the grid, so the demand survival factor is one
    demand_cum = np.zeros(grid.size)
    dist, sigma_norm = quasi_static_density(supply_cum, demand_cum, grid=grid)
    assert sigma_norm == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(dist.density, 2.0 * grid, atol=1e-12)


def test_overlap_orientation_peaks_between_books():
    grid = uniform_grid(0.0, 1.0, 10001)
    # supply mass concentrated low, demand mass concentrated high: the
    # overlap F_supply * (1 - F_demand) peaks strictly inside
    supply_cum = np.clip(grid / 0.6, 0.0, 1.0)
    demand_cum = np.clip((grid - 0.4) / 0.6, 0.0, 1.0)
    dist, _ = quasi_static_density(supply_cum, demand_cum, grid=grid)
    manual = supply_cum * (1.0 - demand_cum)
    manual /= trapezoid(manual, grid)
    np.testing.assert_allclose(dist.density, manual, rtol=1e-10, atol=1e-12)


def test_total_sales_rate_composes_rate_factors():
    assert total_sales_rate(2.0, 3.0, 5.0, 0.25) == pytest.approx(7.5)
    assert total_sales_rate(0.0, 3.0, 5.0, 0.25) == 0.0
    assert total_sales_rate(1.0, 1.0, 1.0, 1.0 / 6.0) == pytest.approx(1.0 / 6.0)
    with pytest.raises(ValueError):
        total_sales_rate(-1.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        total_sales_rate(1.0, 1.0, 1.0, -0.1)


@given(
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_total_sales_rate_is_bilinear_in_stocks(x_total, z_total, eta):
    base = total_sales_rate(eta, x_total, z_total, 0.2)
    doubled = total_sales_rate(eta, 2.0 * x_total, z_total, 0.2)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12, abs=1e-300)


def test_shape_is_independent_of_total_stock_scale():
    grid, ask, bid = _uniform_books(2001)
    dist, sigma_norm = quasi_static_density(ask.cumulative, bid.cumulative, grid)
    # totals never enter the density; they only multiply the overall rate
    assert trapezoid(dist.density, grid) == pytest.approx(1.0, abs=1e-12)
    for scale in (0.5, 7.0):
        rate = total_sales_rate(1.0, scale, scale, sigma_norm)
        assert rate == pytest.approx(scale * scale * sigma_norm, rel=1e-12)


def test_curves_from_books_are_monotone_with_correct_anchors():
    grid, ask, bid = _uniform_books(101)
    curves = SupplyDemandCurves.from_books(
        grid, bid.cumulative, ask.cumulative, x_total=4.0, z_total=2.0
    )
    assert curves.x_units[0] == 4.0
    assert np.all(np.diff(curves.x_units) <= 0.0)
    assert np.all(np.diff(curves.z_units) >= 0.0)
    assert curves.z_units[-1] == pytest.approx(2.0, rel=1e-12)


def test_curves_validation_rejects_wrong_monotonicity():
    grid = uniform_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="nonincreasing"):
        SupplyDemandCurves(
            grid,
            x_units=np.array([1.0, 2.0, 3.0]),
            z_units=np.array([0.0, 1.0, 2.0]),
        )
    with pytest.raises(ValueError, match="nondecreasing"):
        SupplyDemandCurves(
            grid,
            x_units=np.array([3.0, 2.0, 1.0]),
            z_units=np.array([2.0, 1.0, 0.0]),
        )
    with pytest.raises(ValueError, match="match the grid shape"):
        SupplyDemandCurves(grid, np.ones(4), np.ones(3))
    with pytest.raises(ValueError, match="match the grid shape"):
        SupplyDemandCurves(grid, np.ones(3), np.ones(2))
    # a NaN would pass every monotonicity check and make the intercept NaN
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            SupplyDemandCurves(grid, np.array([bad, 2.0, 1.0]), np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="nonnegative and finite"):
            SupplyDemandCurves(grid, np.array([3.0, 2.0, 1.0]), np.array([0.0, 1.0, bad]))


def test_curves_from_bin_stocks_match_partial_sums():
    grid = uniform_grid(0.0, 1.0, 4)
    x_bins = np.array([1.0, 2.0, 3.0, 4.0])
    z_bins = np.array([4.0, 3.0, 2.0, 1.0])
    curves = SupplyDemandCurves.from_bin_stocks(grid, x_bins, z_bins)
    np.testing.assert_allclose(curves.x_units, [10.0, 9.0, 7.0, 4.0])
    np.testing.assert_allclose(curves.z_units, [4.0, 7.0, 9.0, 10.0])
    # bins of another shape are refused, not flattened onto the grid
    with pytest.raises(ValueError, match="match the grid shape"):
        SupplyDemandCurves.from_bin_stocks(grid, x_bins.reshape(2, 2), z_bins.reshape(2, 2))


def test_intercept_of_symmetric_linear_curves_is_central():
    grid = uniform_grid(0.0, 1.0, 11)
    curves = SupplyDemandCurves(grid, 1.0 - grid, grid.copy())
    p_star = intercept_price(curves)
    assert p_star == pytest.approx(0.5, abs=1e-12)


def test_intercept_interpolates_between_nodes():
    grid = np.array([0.0, 1.0])
    curves = SupplyDemandCurves(grid, np.array([3.0, 0.0]), np.array([0.0, 1.0]))
    # excess demand 3 at p=0 and -1 at p=1 crosses zero at p = 3/4
    p_star = intercept_price(curves)
    assert p_star == pytest.approx(0.75, rel=1e-12)


def test_intercept_residual_is_negligible():
    rng = np.random.default_rng(11)
    grid = uniform_grid(0.0, 2.0, 301)
    x_bins = rng.uniform(0.1, 1.0, 300 + 1)
    z_bins = rng.uniform(0.1, 1.0, 301) * np.linspace(0.1, 2.0, 301)
    curves = SupplyDemandCurves.from_bin_stocks(grid, x_bins, z_bins)
    p_star = intercept_price(curves)
    x_at = np.interp(p_star, grid, curves.x_units)
    z_at = np.interp(p_star, grid, curves.z_units)
    bound = 1e-9 * max(curves.x_units[0], curves.z_units[-1])
    assert abs(x_at - z_at) <= bound


def test_intercept_near_the_float_maximum():
    grid = np.array([0.0, 2.0, 4.0])
    curves = SupplyDemandCurves(grid, [1.7e308, 1.7e308, 0.0], [0.0, 1.7e308, 1.7e308])
    assert intercept_price(curves) == 2.0
    # gaps 1e307 and -1.7e308 cross at 2 + 2 * 1e307 / 1.8e308
    curves = SupplyDemandCurves(grid, [1.7e308, 1.6e308, 0.0], [0.0, 1.5e308, 1.7e308])
    assert intercept_price(curves) == pytest.approx(2.0 + 1.0 / 9.0, rel=1e-15)


units = st.floats(min_value=0.0, max_value=1.7976931348623157e308)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.floats(min_value=-1e300, max_value=1e300), st.floats(min_value=1e-300, max_value=1e300),
       st.lists(st.tuples(units, units), min_size=2, max_size=6))
@example(0.0, 4.0, [(1.7e308, 0.0), (1.7e308, 1.7e308), (0.0, 1.7e308)])
@example(0.0, 4.0, [(1.7e308, 0.0), (1.6e308, 1.5e308), (0.0, 1.7e308)])
@example(0.0, 1.0, [(5e-324, 0.0), (0.0, 1.7e308)])  # the gaps' ratio overflows
def test_intercept_is_the_exact_crossing_over_the_float_range(p_min, width, units_pairs):
    # grids come from uniform_grid, which refuses a span past the float range
    try:
        grid = uniform_grid(p_min, p_min + width, len(units_pairs))
        x_units, z_units = zip(*units_pairs)
        curves = SupplyDemandCurves(grid, sorted(x_units, reverse=True), sorted(z_units))
    except ValueError:
        assume(False)
    gap = curves.x_units - curves.z_units
    crossing = np.nonzero(gap <= 0.0)[0]
    if gap[0] < 0.0 or crossing.size == 0:
        with pytest.raises(NoIntercept):
            intercept_price(curves)
        return
    p_star = intercept_price(curves)
    j = int(crossing[0])
    if j == 0:
        assert p_star == grid[0]
        return
    p_lo, p_hi, g_lo, g_hi = (Fraction(float(v)) for v in (grid[j - 1], grid[j], gap[j - 1], gap[j]))
    exact = p_lo + g_lo / (g_lo - g_hi) * (p_hi - p_lo)
    assert abs(Fraction(p_star) - exact) <= 8 * Fraction(2.0**-52) * (abs(p_lo) + abs(p_hi))


def test_no_intercept_when_curves_never_cross():
    grid = uniform_grid(0.0, 1.0, 5)
    # demand exceeds supply everywhere
    curves = SupplyDemandCurves(grid, np.full(5, 10.0), np.linspace(0.0, 1.0, 5))
    with pytest.raises(NoIntercept):
        intercept_price(curves)
    # supply exceeds demand already at the lowest price
    curves = SupplyDemandCurves(grid, np.full(5, 0.5), np.linspace(1.0, 2.0, 5))
    with pytest.raises(NoIntercept):
        intercept_price(curves)


def test_intercept_at_grid_start_when_already_balanced():
    grid = uniform_grid(0.0, 1.0, 5)
    curves = SupplyDemandCurves(grid, np.full(5, 2.0), np.full(5, 2.0))
    assert intercept_price(curves) == 0.0
