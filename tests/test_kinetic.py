"""Tests for the per-bin kinetic market simulator.

Invariants exercised here:
  * a run conserves units: stocks fall exactly by what was sold and rise
    exactly by what flowed in,
  * bin populations never go negative thanks to the transaction cap,
  * runs are bit-for-bit reproducible for a fixed seed,
  * the step loop's scratch memory grows with neither the run length nor
    the grid, and the worst depletion fraction is reported,
  * the matched closure admits an exactly stationary state whose sales
    law, supply-demand intercept, and totals all sit still, and from empty
    books its total sales converge at first order in dt to the exact ones.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from dispersim.errors import ModelError, StabilityViolation, ZeroMass, ZeroSalesVolume
from dispersim.estimate import fit_laplace
from dispersim.grids import uniform_grid
from dispersim.kinetic import (
    _SCRATCH_BYTES,
    STABILITY_BOUND,
    InflowSpec,
    MarketState,
    initial_state,
    run,
    stationary_state,
)
from dispersim.quasistatic import SupplyDemandCurves, intercept_price
from dispersim.samples import Sample


def _quiet_inflow() -> InflowSpec:
    return InflowSpec(0.0, 0.0, mu_ref=1.0, sigma_ref=0.2)


def test_single_step_arithmetic():
    grid = uniform_grid(0.0, 1.0, 2)
    state = MarketState(grid, np.array([2.0, 1.0]), np.array([3.0, 0.5]), eta=0.25)
    result = run(state, _quiet_inflow(), dt=0.1, horizon=0.1)
    after = result.final_state
    np.testing.assert_allclose(after.x_bins, [1.85, 0.9875], rtol=1e-12)
    np.testing.assert_allclose(after.z_bins, [2.85, 0.4875], rtol=1e-12)
    np.testing.assert_allclose(after.cumulative_sales, [0.15, 0.0125], rtol=1e-12)
    assert after.clock == pytest.approx(0.1)
    assert after.cap_hits == 0
    assert result.event_count == pytest.approx(0.1625)
    np.testing.assert_allclose(result.times, [0.1])
    np.testing.assert_allclose(result.sales_rate_series, [1.625])


def test_step_caps_transactions_at_available_stock():
    # The first step is uncapped (eta * stock * dt = 0.05); the supply inflow
    # then floods bin 1, so the second step there wants 0.1 * 0.475 * z > 0.475
    # units and must stop at the buyers' remaining stock.
    grid = uniform_grid(0.0, 1.0, 2)
    inflow = InflowSpec(0.0, 2000.0, mu_ref=0.5, sigma_ref=0.2)
    _, s_weights = inflow.bin_weights(grid)
    state = MarketState(grid, np.array([0.5, 0.5]), np.array([0.5, 0.5]), eta=1.0)
    result = run(state, inflow, dt=0.1, horizon=0.2)
    after = result.final_state
    assert after.x_bins[1] == 0.0
    assert after.z_bins[1] == pytest.approx(2 * 2000.0 * 0.1 * s_weights[1])
    assert after.cumulative_sales[1] == pytest.approx(0.5)
    assert after.x_bins[0] > 0.0
    assert after.cap_hits == 1
    assert result.cap_hits == 1


def test_run_conserves_units_exactly():
    rng = np.random.default_rng(5)
    grid = uniform_grid(0.0, 2.0, 41)
    inflow = InflowSpec(3.0, 7.0, mu_ref=1.0, sigma_ref=0.3)
    state = MarketState(grid, rng.uniform(0.0, 1.0, 41), rng.uniform(0.0, 1.0, 41), 0.2)
    horizon = 5.0
    result = run(state, inflow, dt=0.1, horizon=horizon)
    after = result.final_state
    sold = result.event_count
    assert sold > 0.0
    scale = max(state.x_total, state.z_total, after.x_total, after.z_total)
    assert abs(after.x_total - (state.x_total - sold + 3.0 * horizon)) < 1e-12 * scale
    assert abs(after.z_total - (state.z_total - sold + 7.0 * horizon)) < 1e-12 * scale


def test_stocks_stay_nonnegative_under_aggressive_matching():
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(500.0, 100.0, mu_ref=1.0, sigma_ref=0.2, shape="monotone")
    init = initial_state(grid, 1.0, inflow)
    result = run(init, inflow, dt=0.05, horizon=20.0)
    assert result.cap_hits > 0
    # the run leaves the regime that the t = 0 bound guards, and says so
    assert result.worst_depletion > STABILITY_BOUND
    assert np.all(result.final_state.x_bins >= 0.0)
    assert np.all(result.final_state.z_bins >= 0.0)
    assert np.all(result.x_series >= 0.0) and np.all(result.z_series >= 0.0)


def test_market_state_validation():
    grid = uniform_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        MarketState(grid, np.array([1.0, -0.1, 1.0]), np.ones(3), 1.0)
    with pytest.raises(ValueError):
        MarketState(grid, np.ones(3), np.ones(3), -1.0)
    with pytest.raises(ValueError, match="eta"):
        MarketState(grid, np.ones(3), np.ones(3), np.nan)
    with pytest.raises(ValueError):
        MarketState(grid, np.ones(4), np.ones(3), 1.0)
    with pytest.raises(ValueError):
        MarketState(np.array([0.0, 0.5, 0.2]), np.ones(3), np.ones(3), 1.0)
    with pytest.raises(ValueError):
        MarketState(grid, np.ones(3), np.ones(3), 1.0, cumulative_sales=np.ones(2))
    # non-finite stocks and tallies are refused here, not as an overflow later
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="stocks"):
            MarketState(grid, np.array([1.0, bad, 1.0]), np.ones(3), 1.0)
        with pytest.raises(ValueError, match="stocks"):
            MarketState(grid, np.ones(3), np.array([bad, 1.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="cumulative_sales"):
            MarketState(grid, np.ones(3), np.ones(3), 1.0,
                        cumulative_sales=np.array([0.0, bad, 0.0]))
        with pytest.raises(ValueError, match="clock"):
            MarketState(grid, np.ones(3), np.ones(3), 1.0, clock=bad)
    with pytest.raises(ValueError, match="eta"):
        MarketState(grid, np.ones(3), np.ones(3), np.inf)
    with pytest.raises(ValueError, match="cap_hits"):
        MarketState(grid, np.ones(3), np.ones(3), 1.0, cap_hits=-1)


def test_market_state_refuses_a_one_node_grid():
    with pytest.raises(ValueError, match="at least 2 points"):
        MarketState(np.array([1.0]), np.ones(1), np.ones(1), 1.0)


def test_market_state_totals_track_bins():
    grid = uniform_grid(0.0, 1.0, 4)
    state = MarketState(grid, np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4), 1.0)
    assert state.x_total == 10.0
    assert state.z_total == 4.0
    assert state.event_count == 0.0


def test_inflow_spec_validation():
    with pytest.raises(ValueError):
        InflowSpec(-1.0, 1.0, 1.0, 0.2)
    with pytest.raises(ValueError):
        InflowSpec(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        InflowSpec(1.0, 1.0, 1.0, 0.2, shape="sideways")
    with pytest.raises(ValueError):
        InflowSpec(1.0, 1.0, 1.0, 0.2, jitter=-0.5)
    # NaN fails every comparison, so each check is written to refuse it
    with pytest.raises(ValueError, match="rates"):
        InflowSpec(np.nan, 1.0, 1.0, 0.2)
    with pytest.raises(ValueError, match="rates"):
        InflowSpec(1.0, np.nan, 1.0, 0.2)
    with pytest.raises(ValueError, match="sigma_ref"):
        InflowSpec(1.0, 1.0, 1.0, np.nan)
    with pytest.raises(ValueError, match="jitter"):
        InflowSpec(1.0, 1.0, 1.0, 0.2, jitter=np.nan)
    with pytest.raises(ValueError, match="rates"):
        InflowSpec(np.inf, 1.0, 1.0, 0.2)
    with pytest.raises(ValueError, match="rates"):
        InflowSpec(1.0, np.inf, 1.0, 0.2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="mu_ref"):
            InflowSpec(1.0, 1.0, bad, 0.2)
    with pytest.raises(ValueError, match="sigma_ref"):
        InflowSpec(1.0, 1.0, 1.0, np.inf)
    with pytest.raises(ValueError, match="jitter"):
        InflowSpec(1.0, 1.0, 1.0, 0.2, jitter=np.inf)


@pytest.mark.parametrize("shape", ["monotone", "matched"])
def test_inflow_shapes_are_unit_densities_and_unit_weights(shape):
    grid = uniform_grid(0.0, 2.0, 201)
    inflow = InflowSpec(1.0, 1.0, mu_ref=1.0, sigma_ref=0.2, shape=shape)
    d_dens, s_dens = inflow.shape_densities(grid)
    assert np.trapezoid(d_dens, grid) == pytest.approx(1.0, abs=1e-12)
    assert np.trapezoid(s_dens, grid) == pytest.approx(1.0, abs=1e-12)
    d_w, s_w = inflow.bin_weights(grid)
    assert abs(d_w.sum() - 1.0) < 1e-12
    assert abs(s_w.sum() - 1.0) < 1e-12
    assert np.all(d_w >= 0.0) and np.all(s_w >= 0.0)


def test_monotone_closure_feeds_buyers_low_and_sellers_high():
    grid = uniform_grid(0.0, 2.0, 201)
    inflow = InflowSpec(1.0, 1.0, mu_ref=1.0, sigma_ref=0.2, shape="monotone")
    d_dens, s_dens = inflow.shape_densities(grid)
    assert np.all(np.diff(d_dens) <= 0.0)
    assert np.all(np.diff(s_dens) >= 0.0)


def test_run_rejects_unstable_configuration():
    grid = uniform_grid(0.0, 2.0, 11)
    state = MarketState(grid, np.full(11, 10.0), np.full(11, 10.0), eta=1.0)
    with pytest.raises(StabilityViolation) as exc:
        run(state, _quiet_inflow(), dt=0.5, horizon=5.0)
    assert str(STABILITY_BOUND) in str(exc.value)


def test_run_rejects_bad_step_sizes():
    grid = uniform_grid(0.0, 2.0, 11)
    state = MarketState(grid, np.ones(11), np.ones(11), eta=0.01)
    with pytest.raises(ValueError):
        run(state, _quiet_inflow(), dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        run(state, _quiet_inflow(), dt=1.0, horizon=0.5)
    with pytest.raises(ValueError, match="dt must be positive"):
        run(state, _quiet_inflow(), dt=np.nan, horizon=1.0)
    with pytest.raises(ValueError, match="horizon"):
        run(state, _quiet_inflow(), dt=0.1, horizon=np.nan)
    with pytest.raises(ValueError, match="horizon"):
        run(state, _quiet_inflow(), dt=0.1, horizon=np.inf)


def test_run_without_transactions_raises():
    grid = uniform_grid(0.0, 2.0, 11)
    inflow = InflowSpec(1.0, 1.0, mu_ref=1.0, sigma_ref=0.2)
    state = MarketState(grid, np.zeros(11), np.zeros(11), eta=0.0)
    with pytest.raises(ZeroSalesVolume):
        run(state, inflow, dt=0.1, horizon=1.0)


def test_totals_decay_monotonically_without_inflow():
    grid = uniform_grid(0.0, 2.0, 41)
    inflow = _quiet_inflow()
    state = initial_state(grid, 0.5, InflowSpec(1.0, 1.0, 1.0, 0.2), 2.0, 2.0)
    state = MarketState(grid, state.x_bins, state.z_bins, eta=0.5)
    result = run(state, inflow, dt=0.1, horizon=20.0)
    assert np.all(np.diff(result.x_series) <= 1e-15)
    assert np.all(np.diff(result.z_series) <= 1e-15)
    assert result.event_count > 0.0


def test_same_seed_reproduces_bit_for_bit():
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(20.0, 20.0, 1.0, 0.2, shape="matched", jitter=0.3)
    state = stationary_state(grid, 1.0, InflowSpec(20.0, 20.0, 1.0, 0.2, "matched"))
    a = run(state, inflow, dt=0.01, horizon=5.0, seed=42)
    b = run(state, inflow, dt=0.01, horizon=5.0, seed=42)
    np.testing.assert_array_equal(a.sales_histogram.density, b.sales_histogram.density)
    np.testing.assert_array_equal(a.x_series, b.x_series)
    np.testing.assert_array_equal(a.final_state.x_bins, b.final_state.x_bins)
    c = run(state, inflow, dt=0.01, horizon=5.0, seed=43)
    assert not np.array_equal(a.x_series, c.x_series)


def test_zero_jitter_makes_seed_irrelevant():
    grid = uniform_grid(0.0, 2.0, 51)
    inflow = InflowSpec(5.0, 5.0, 1.0, 0.2, shape="matched")
    state = stationary_state(grid, 1.0, inflow)
    a = run(state, inflow, dt=0.01, horizon=2.0, seed=1)
    b = run(state, inflow, dt=0.01, horizon=2.0, seed=99)
    np.testing.assert_array_equal(a.sales_histogram.density, b.sales_histogram.density)


def test_halving_dt_leaves_sales_law_unchanged():
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(10.0, 10.0, 1.0, 0.2, shape="monotone")
    init = initial_state(grid, 0.1, inflow, x_total=50.0, z_total=50.0)
    coarse = run(init, inflow, dt=0.2, horizon=50.0)
    fine = run(init, inflow, dt=0.1, horizon=50.0)
    ks = np.max(
        np.abs(coarse.sales_histogram.cumulative - fine.sales_histogram.cumulative)
    )
    assert ks < 0.01


def test_matched_stationary_state_is_exactly_balanced():
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(100.0, 100.0, 1.0, 0.2, shape="matched")
    state = stationary_state(grid, 1.0, inflow)
    # depletion exactly offsets inflow in every bin
    np.testing.assert_allclose(
        state.eta * state.x_bins * state.z_bins,
        100.0 * inflow.bin_weights(grid)[0],
        rtol=1e-12,
    )
    after = run(state, inflow, dt=0.01, horizon=1.0).final_state
    np.testing.assert_allclose(after.x_bins, state.x_bins, rtol=1e-12)
    np.testing.assert_allclose(after.z_bins, state.z_bins, rtol=1e-12)


def test_matched_run_keeps_totals_flat_and_intercept_at_median():
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(100.0, 100.0, 1.0, 0.2, shape="matched")
    state = stationary_state(grid, 1.0, inflow)
    result = run(state, inflow, dt=0.01, horizon=2.0)
    spread = result.x_series.max() - result.x_series.min()
    assert spread <= 1e-9 * result.x_series.mean()
    curves = SupplyDemandCurves.from_bin_stocks(
        grid, result.final_state.x_bins, result.final_state.z_bins
    )
    p_star = intercept_price(curves)
    median = result.sales_histogram.median()
    assert abs(p_star - median) <= grid[1] - grid[0]


@pytest.mark.parametrize("rate, eta, horizon", [(100.0, 0.1, 2.0), (200.0, 1.0, 1.0)])
def test_matched_sales_from_empty_books_converge_to_the_exact_solution(rate, eta, horizon):
    # Equal rates and empty books keep x = z in every bin, so x' = a - eta * x**2
    # gives x(t) = sqrt(a / eta) * tanh(sqrt(a * eta) * t), and the bin has
    # sold a * t - x(t) by time t. The explicit scheme is first order in dt.
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(rate, rate, 1.0, 0.2, shape="matched")
    a = rate * inflow.bin_weights(grid)[0]
    exact = np.sum(a * horizon - np.sqrt(a / eta) * np.tanh(np.sqrt(a * eta) * horizon))
    start = initial_state(grid, eta, inflow)
    errors = [
        abs(run(start, inflow, dt, horizon).event_count - exact) / exact
        for dt in (0.1, 0.05, 0.025)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.2
    assert errors[-1] < 1e-2


def test_monotone_inflows_from_empty_build_two_sided_exponential_sales():
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(200.0, 200.0, 1.0, 0.2, shape="monotone")
    init = initial_state(grid, 1.0, inflow)
    result = run(init, inflow, dt=0.05, horizon=100.0)
    fit = fit_laplace(Sample(grid, result.final_state.cumulative_sales))
    assert fit.params.mu == pytest.approx(1.0, abs=0.02)
    assert fit.params.sigma == pytest.approx(0.2, rel=0.1)
    assert fit.ks_distance < 0.05


def test_worst_depletion_is_the_largest_fraction_over_entering_stocks():
    grid = uniform_grid(0.0, 1.0, 2)
    state = MarketState(grid, np.array([0.5, 0.2]), np.array([0.1, 0.3]), eta=1.0)
    inflow = InflowSpec(0.0, 10.0, mu_ref=0.5, sigma_ref=0.2)
    result = run(state, inflow, dt=0.1, horizon=0.3)
    # z grows by 0.5 per bin per step; the stocks after the last step do not
    # enter a step, so they do not count
    x = state.x_bins.copy()
    z = state.z_bins.copy()
    worst = 0.0
    for _ in range(3):
        worst = max(worst, 0.1 * max(x.max(), z.max()))
        sold = np.minimum(0.1 * x * z, np.minimum(x, z))
        x, z = x - sold, z - sold + 10.0 * 0.1 * inflow.bin_weights(grid)[1]
    assert result.worst_depletion == pytest.approx(worst, rel=1e-12)
    assert result.worst_depletion < 0.1 * max(x.max(), z.max())


def test_step_loop_scratch_is_bounded_in_steps_and_bins():
    grid = uniform_grid(0.0, 2.0, 2001)
    inflow = InflowSpec(100.0, 100.0, 1.0, 0.2, shape="matched", jitter=0.2)
    state = stationary_state(grid, 1.0, inflow)
    n_steps = 20_000
    tracemalloc.start()
    try:
        run(state, inflow, dt=0.01, horizon=n_steps * 0.01, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # times, x_series, z_series and sales_rate_series, the scratch budget,
    # and a few grid-length arrays (weights, sales, final stocks, the law)
    assert peak < 4 * 8 * n_steps + _SCRATCH_BYTES + 16 * 8 * grid.size


def test_run_series_are_consistent_with_event_count():
    grid = uniform_grid(0.0, 2.0, 51)
    inflow = InflowSpec(5.0, 5.0, 1.0, 0.2, shape="matched")
    state = stationary_state(grid, 1.0, inflow)
    result = run(state, inflow, dt=0.01, horizon=1.0)
    assert result.times.size == 100
    assert result.times[0] == pytest.approx(0.01)
    assert result.times[-1] == pytest.approx(1.0)
    total_from_series = float(np.sum(result.sales_rate_series) * 0.01)
    assert total_from_series == pytest.approx(result.event_count, rel=1e-9)
    assert result.final_state.clock == pytest.approx(1.0)


def test_initial_state_spreads_totals_like_inflow_shapes():
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(1.0, 2.0, 1.0, 0.2, shape="monotone")
    state = initial_state(grid, 0.5, inflow, x_total=3.0, z_total=4.0)
    assert state.x_total == pytest.approx(3.0, rel=1e-12)
    assert state.z_total == pytest.approx(4.0, rel=1e-12)
    d_w, s_w = inflow.bin_weights(grid)
    np.testing.assert_allclose(state.x_bins, 3.0 * d_w, rtol=1e-12)
    np.testing.assert_allclose(state.z_bins, 4.0 * s_w, rtol=1e-12)


def test_stationary_state_requires_matched_balanced_inflows():
    grid = uniform_grid(0.0, 2.0, 11)
    with pytest.raises(ValueError):
        stationary_state(grid, 1.0, InflowSpec(1.0, 1.0, 1.0, 0.2, shape="monotone"))
    with pytest.raises(ValueError):
        stationary_state(grid, 1.0, InflowSpec(1.0, 2.0, 1.0, 0.2, shape="matched"))
    with pytest.raises(ValueError):
        stationary_state(grid, 0.0, InflowSpec(1.0, 1.0, 1.0, 0.2, shape="matched"))


@pytest.mark.parametrize("shape", ["monotone", "matched"])
def test_inflow_shape_that_vanishes_on_the_grid_is_a_model_error(shape):
    # 1000 reference scales above mu_ref, both shapes underflow to 0
    inflow = InflowSpec(1.0, 1.0, mu_ref=0.0, sigma_ref=1e-3, shape=shape)
    with pytest.raises(ZeroMass, match="inflow shape vanishes"):
        inflow.shape_densities(uniform_grid(1.0, 2.0, 11))


def test_totals_that_overflow_are_refused_without_warnings():
    # Every stock and every sale is finite, but the book totals of the
    # series are not: 11 bins of 1e308 units each.
    grid = uniform_grid(0.0, 2.0, 11)
    state = MarketState(grid=grid, x_bins=np.full(11, 1e308), z_bins=np.full(11, 1e308),
                        eta=1e-320)
    inflow = InflowSpec(1.0, 1.0, mu_ref=1.0, sigma_ref=0.2)
    with pytest.raises(ModelError, match="the books overflow"):
        run(state, inflow, dt=0.1, horizon=1.0)
