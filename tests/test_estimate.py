"""Tests for the two fitters, the distance statistic, and binning.

The statistical assertions pin their seeds: each tolerance was sized
against the sampling spread of the estimator at that sample size, and the
fixed seed keeps the check deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from dispersim.errors import DegenerateSample, EmptyFeasibleShift
from dispersim.estimate import (
    FAMILY_LAPLACE,
    FAMILY_SHIFTED_LOGNORMAL,
    FitResult,
    fit_laplace,
    fit_shifted_lognormal,
    histogram,
    ks_statistic,
)
from dispersim.grids import uniform_grid
from dispersim.laws import LaplaceParams, laplace_cdf, laplace_density
from dispersim.samples import Sample


def _laplace_draws(rng, mu, sigma, n):
    return rng.laplace(mu, sigma, n)


def _shifted_lognormal_draws(rng, gamma, omega, shift, n):
    return shift + gamma * np.exp(omega * rng.standard_normal(n))


# ---------------------------------------------------------------------------
# two-sided exponential fitter
# ---------------------------------------------------------------------------


def test_fit_laplace_three_points():
    fit = fit_laplace(Sample(np.array([1.0, 2.0, 3.0])))
    assert fit.family == FAMILY_LAPLACE
    assert fit.params.mu == 2.0
    assert fit.params.sigma == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert fit.log_likelihood == pytest.approx(-3.0 * (np.log(4.0 / 3.0) + 1.0))
    assert fit.n == 3
    assert 0.0 <= fit.ks_distance <= 1.0


def test_fit_laplace_takes_lower_median_on_even_samples():
    fit = fit_laplace(Sample(np.array([1.0, 2.0, 3.0, 4.0])))
    assert fit.params.mu == 2.0


def test_fit_laplace_weighted_median_and_scale():
    fit = fit_laplace(Sample(np.array([1.0, 3.0]), np.array([3.0, 1.0])))
    assert fit.params.mu == 1.0
    assert fit.params.sigma == pytest.approx(0.5)


def test_weights_act_as_multiplicities():
    weighted = fit_laplace(Sample(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 1.0])))
    expanded = fit_laplace(Sample(np.array([1.0, 1.0, 2.0, 3.0])))
    assert weighted.params.mu == expanded.params.mu
    assert weighted.params.sigma == expanded.params.sigma
    assert weighted.ks_distance == pytest.approx(expanded.ks_distance, rel=1e-14)


def test_fit_laplace_degenerate_inputs():
    with pytest.raises(DegenerateSample):
        fit_laplace(Sample(np.array([2.0, 2.0, 2.0])))
    with pytest.raises(DegenerateSample):
        fit_laplace(Sample(np.array([1.0])))


def test_fit_laplace_refuses_a_median_below_the_floor():
    with pytest.raises(DegenerateSample, match=r"median -0\.5 lies below the price floor 0\.0"):
        fit_laplace(Sample(np.array([-1.0, -0.5, -0.2, 0.1])))
    # a median on the floor itself is in the domain
    assert fit_laplace(Sample(np.array([-1.0, 0.0, 1.0]))).params.mu == 0.0


@given(
    st.floats(min_value=0.01, max_value=100.0),
    # the fitter reports a price floor of zero, so shifted samples must keep
    # a nonnegative center: only nonnegative offsets are in its domain
    st.floats(min_value=0.0, max_value=1e3),
)
def test_fit_laplace_is_affine_equivariant(a, b):
    values = np.array([0.5, 1.25, 2.0, 3.5, 5.0, 9.0])
    base = fit_laplace(Sample(values))
    moved = fit_laplace(Sample(a * values + b))
    # with |b| far above a * spread the deviations lose a few digits to
    # cancellation, so the scale tolerance is looser than pure roundoff
    assert moved.params.mu == pytest.approx(a * base.params.mu + b, rel=1e-12, abs=1e-12)
    assert moved.params.sigma == pytest.approx(a * base.params.sigma, rel=1e-9)


def test_fit_laplace_recovers_scale_from_large_sample():
    draws = _laplace_draws(np.random.default_rng(0), 1.0, 0.125, 100_000)
    fit = fit_laplace(Sample(draws))
    assert abs(fit.params.sigma - 0.125) / 0.125 < 0.02
    assert abs(fit.params.mu - 1.0) < 0.01


# ---------------------------------------------------------------------------
# shifted lognormal fitter
# ---------------------------------------------------------------------------


def test_pinned_shift_reduces_to_log_space_moments():
    values = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    fit = fit_shifted_lognormal(Sample(values), shift_bounds=(0.0, 0.0))
    logs = np.log(values)
    assert fit.family == FAMILY_SHIFTED_LOGNORMAL
    assert fit.params.shift == 0.0
    assert fit.params.gamma == pytest.approx(np.exp(logs.mean()), rel=1e-14)
    assert fit.params.omega == pytest.approx(logs.std(), rel=1e-14)


def test_shift_search_needs_room_below_smallest_value():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(EmptyFeasibleShift):
        fit_shifted_lognormal(Sample(values), shift_bounds=(1.0, 5.0))


def test_nonpositive_values_need_explicit_bounds():
    with pytest.raises(EmptyFeasibleShift):
        fit_shifted_lognormal(Sample(np.array([-0.5, 1.0, 2.0])))


def test_too_few_observations_for_three_parameters():
    with pytest.raises(DegenerateSample):
        fit_shifted_lognormal(Sample(np.array([1.0, 2.0])))


def test_constant_values_have_no_log_spread():
    with pytest.raises(DegenerateSample):
        fit_shifted_lognormal(
            Sample(np.array([2.0, 2.0, 2.0])), shift_bounds=(0.0, 0.0)
        )


def test_shifted_lognormal_recovery_within_five_percent():
    rng = np.random.default_rng(3)
    draws = _shifted_lognormal_draws(rng, 0.41, 0.245, 0.0245, 100_000)
    fit = fit_shifted_lognormal(Sample(draws))
    assert abs(fit.params.shift - 0.0245) / 0.0245 < 0.05
    assert abs(fit.params.gamma - 0.41) / 0.41 < 0.05
    assert abs(fit.params.omega - 0.245) / 0.245 < 0.05


def test_estimated_shift_is_small_when_the_law_has_none():
    # an unshifted heavy log-spread law: the profiled shift must stay a
    # small fraction of the median in the vast majority of runs
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        draws = _shifted_lognormal_draws(rng, 1.0, 0.6, 0.0, 200_000)
        fit = fit_shifted_lognormal(Sample(draws), grid_points=32)
        if fit.params.shift < 0.005 * np.median(draws):
            hits += 1
    assert hits >= 18


def test_errors_shrink_with_sample_size_for_both_fitters():
    small_err = np.empty(20)
    large_err = np.empty(20)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        small = fit_laplace(Sample(_laplace_draws(rng, 1.0, 0.2, 10_000)))
        large = fit_laplace(Sample(_laplace_draws(rng, 1.0, 0.2, 1_000_000)))
        small_err[seed] = abs(small.params.sigma - 0.2)
        large_err[seed] = abs(large.params.sigma - 0.2)
    assert large_err.mean() < 0.5 * small_err.mean()

    small_err = np.empty(20)
    large_err = np.empty(20)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        small_draws = _shifted_lognormal_draws(rng, 1.0, 0.3, 0.0, 10_000)
        large_draws = _shifted_lognormal_draws(rng, 1.0, 0.3, 0.0, 1_000_000)
        small = fit_shifted_lognormal(Sample(small_draws), grid_points=16)
        large = fit_shifted_lognormal(Sample(large_draws), grid_points=16)
        small_err[seed] = abs(small.params.omega - 0.3)
        large_err[seed] = abs(large.params.omega - 0.3)
    assert large_err.mean() < 0.5 * small_err.mean()


# ---------------------------------------------------------------------------
# distance statistic
# ---------------------------------------------------------------------------


def test_ks_of_quantile_sample_is_half_step():
    n = 8
    values = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    d = ks_statistic(Sample(values), ndtr)
    assert d == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_of_single_point_at_model_median():
    assert ks_statistic(Sample(np.array([0.0])), ndtr) == 0.5


def test_ks_rejects_empty_sample():
    with pytest.raises(DegenerateSample):
        ks_statistic(Sample(np.array([])), ndtr)


def test_ks_is_invariant_under_exact_monotone_reparametrization():
    # dyadic data and a power-of-two affine map keep every intermediate
    # float exact, so the two distances must coincide bit for bit
    rng = np.random.default_rng(9)
    values = rng.integers(-40, 40, size=500).astype(float) / 8.0
    weights = rng.integers(1, 5, size=500).astype(float)
    sample = Sample(values, weights)
    moved = Sample(2.0 * values + 1.0, weights)
    params = LaplaceParams(mu=1.0, sigma=2.0)

    def moved_cdf(y):
        return laplace_cdf((y - 1.0) / 2.0, params)

    d_base = ks_statistic(sample, lambda x: laplace_cdf(x, params))
    d_moved = ks_statistic(moved, moved_cdf)
    assert d_base == d_moved


def test_ks_stays_below_critical_value_for_true_model():
    n = 10_000
    passed = 0
    for seed in range(100):
        draws = np.random.default_rng(seed).standard_normal(n)
        if ks_statistic(Sample(draws), ndtr) < 1.36 / np.sqrt(n):
            passed += 1
    assert passed >= 95


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------


def test_histogram_single_interior_spike():
    grid = uniform_grid(0.0, 1.0, 11)
    dist, dropped = histogram(Sample(np.array([0.5])), grid)
    assert dropped == 0.0
    assert dist.density[5] == pytest.approx(10.0)
    assert np.all(dist.density[np.arange(11) != 5] == 0.0)


def test_histogram_rounds_to_nearest_center():
    grid = uniform_grid(0.0, 1.0, 11)
    dist, dropped = histogram(Sample(np.array([0.26, 0.24])), grid)
    assert dropped == 0.0
    # 0.26 rounds up to the 0.3 center, 0.24 down to the 0.2 center
    assert dist.density[3] > 0.0
    assert dist.density[2] > 0.0
    assert dist.density[4] == 0.0


def test_histogram_reports_dropped_weight_fraction():
    grid = uniform_grid(0.0, 1.0, 11)
    sample = Sample(np.array([-0.04, 1.04, -0.2, 1.2]))
    dist, dropped = histogram(sample, grid)
    assert dropped == pytest.approx(0.5)
    assert dist.cumulative[-1] == 1.0


def test_histogram_rejects_bad_inputs():
    with pytest.raises(DegenerateSample):
        histogram(Sample(np.array([])), uniform_grid(0.0, 1.0, 11))
    with pytest.raises(DegenerateSample):
        histogram(Sample(np.array([5.0, 6.0])), uniform_grid(0.0, 1.0, 11))
    with pytest.raises(ValueError):
        histogram(Sample(np.array([0.5])), np.array([0.0, 0.1, 0.5]))
    with pytest.raises(ValueError):
        histogram(Sample(np.array([0.5])), np.array([0.5]))


def test_histogram_of_large_sample_tracks_the_density():
    params = LaplaceParams(mu=1.0, sigma=0.2)
    draws = np.random.default_rng(21).laplace(1.0, 0.2, 1_000_000)
    grid = uniform_grid(0.0, 2.0, 401)
    dist, dropped = histogram(Sample(draws), grid)
    assert dropped < 0.01
    target = laplace_density(grid, params)
    # the peak bin averages the kink, and the sup runs over 401 bins of
    # sampling noise, so the bound is several sigma above a single bin's
    assert np.max(np.abs(dist.density - target)) < 0.05 * target.max()


# ---------------------------------------------------------------------------
# result record
# ---------------------------------------------------------------------------


def test_fit_result_validation():
    params = LaplaceParams(mu=1.0, sigma=0.5)
    with pytest.raises(ValueError):
        FitResult(FAMILY_LAPLACE, params, -1.0, 1.5, 10)
    with pytest.raises(ValueError):
        FitResult(FAMILY_LAPLACE, params, -1.0, 0.5, 0)


def test_fit_result_record_round_trips_parameters():
    fit = fit_laplace(Sample(np.array([1.0, 2.0, 3.0, 5.0])))
    record = fit.to_record()
    assert record["family"] == FAMILY_LAPLACE
    assert float(record["mu"]) == fit.params.mu
    assert float(record["sigma"]) == fit.params.sigma
    assert float(record["ks"]) == fit.ks_distance
    assert int(record["n"]) == 4
