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
from dispersim.grids import GriddedDistribution, uniform_grid
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


def test_weights_whose_plain_sums_overflow_fit_like_unit_weights():
    values = np.array([1.0, 2.0, 3.0])
    unit = Sample(values)
    huge = Sample(values, np.full(3, 1e308))
    fit = fit_laplace(huge)
    assert (fit.params.mu, fit.params.sigma) == (2.0, fit_laplace(unit).params.sigma)
    assert fit.log_likelihood == -np.inf  # -3e308 * (log(4/3) + 1) rounds to -inf
    assert fit.ks_distance == fit_laplace(unit).ks_distance
    assert ks_statistic(huge, lambda x: x / 4.0) == ks_statistic(unit, lambda x: x / 4.0)
    grid = uniform_grid(0.0, 2.0, 5)
    (law, dropped), (unit_law, unit_dropped) = histogram(huge, grid), histogram(unit, grid)
    np.testing.assert_array_equal(law.density, unit_law.density)
    assert dropped == unit_dropped == pytest.approx(1.0 / 3.0)
    with pytest.raises(DegenerateSample, match="no local maximum"):
        fit_shifted_lognormal(huge)
    # where the log-likelihood is a normal float it has the plain formula's bits
    large = fit_laplace(Sample(values, np.full(3, 1e307)))
    plain = -np.full(3, 1e307).sum() * (np.log(2.0 * large.params.sigma) + 1.0)
    assert large.log_likelihood == plain


def test_fit_laplace_degenerate_inputs():
    with pytest.raises(DegenerateSample):
        fit_laplace(Sample(np.array([2.0, 2.0, 2.0])))
    with pytest.raises(DegenerateSample):
        fit_laplace(Sample(np.array([1.0])))
    with pytest.raises(DegenerateSample, match="mean absolute deviation about 1e\\+308 overflows"):
        fit_laplace(Sample(np.array([-1e308, 1e308, 1e308])))


def test_fit_laplace_refuses_a_scale_below_the_smallest_normal_float():
    # LaplaceParams would refuse such a scale with a ValueError; the fit names it
    with pytest.raises(DegenerateSample, match=r"deviation 5e-311 is below the smallest normal"):
        fit_laplace(Sample(np.array([0.0, 1e-310])))


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


def test_nonpositive_values_leave_no_feasible_shift():
    sample = Sample(np.array([-0.5, 1.0, 2.0]))
    with pytest.raises(EmptyFeasibleShift, match="-0.5 is not positive, so no nonnegative shift"):
        fit_shifted_lognormal(sample)
    with pytest.raises(EmptyFeasibleShift, match="no shift in"):
        fit_shifted_lognormal(sample, shift_bounds=(0.0, 0.1))


@pytest.mark.parametrize("bounds", [(-5.0, -4.0), (-1.0, 0.5), (0.3, 0.1), (0.0, np.nan)])
def test_negative_or_inverted_shift_bounds_are_refused_before_the_search(monkeypatch, bounds):
    def no_profile(*args):
        raise AssertionError("the shift profile was evaluated")

    monkeypatch.setattr(Sample, "sorted", no_profile)
    monkeypatch.setattr("dispersim.estimate._log_moments", no_profile)
    with pytest.raises(ValueError, match=r"^shift bounds must satisfy 0 <= lo <= hi, got \("):
        fit_shifted_lognormal(Sample(np.array([1.0, 2.0, 4.0])), shift_bounds=bounds)


def test_too_few_observations_for_three_parameters():
    with pytest.raises(DegenerateSample):
        fit_shifted_lognormal(Sample(np.array([1.0, 2.0])))


def test_constant_values_have_no_log_spread():
    with pytest.raises(DegenerateSample):
        fit_shifted_lognormal(
            Sample(np.array([2.0, 2.0, 2.0])), shift_bounds=(0.0, 0.0)
        )
    # three distinct neighbouring floats whose logs coincide
    close = np.nextafter(1e300, np.inf, dtype=float)
    distinct = np.array([1e300, close, np.nextafter(close, np.inf)])
    with pytest.raises(DegenerateSample, match="^shifted logs carry no spread$"):
        fit_shifted_lognormal(Sample(distinct), shift_bounds=(0.0, 0.0))
    # a searched shift leaves a variance of rounding noise, not a spread
    with pytest.raises(DegenerateSample, match="all observations coincide"):
        fit_shifted_lognormal(Sample(np.array([2.0, 2.0, 2.0, 2.0, 2.0])))


@pytest.mark.parametrize("n", [30, 300])
def test_a_search_that_ends_on_the_clamp_is_refused(n):
    # 1 + Exp(1)^2 piles up at its minimum, so the profile likelihood keeps
    # rising up to the clamp 0.99 * min(x): no local maximum lies in the bounds.
    draws = 1.0 + np.random.default_rng(0).exponential(1.0, n) ** 2
    with pytest.raises(DegenerateSample, match=r"no local maximum in \[0\.0, "):
        fit_shifted_lognormal(Sample(draws))


def test_only_an_upper_bound_set_by_the_smallest_value_is_a_clamp():
    draws = 1.0 + np.random.default_rng(0).exponential(1.0, 30) ** 2
    # A bound above min(x) is clamped to just below it, and refused there,
    with pytest.raises(DegenerateSample, match="no local maximum"):
        fit_shifted_lognormal(Sample(draws), shift_bounds=(0.0, 5.0))
    # but a bound the caller set below min(x) is an answer.
    hi = 0.5 * draws.min()
    assert fit_shifted_lognormal(Sample(draws), shift_bounds=(0.0, hi)).params.shift == hi


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
        fit = fit_shifted_lognormal(Sample(draws))
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
        small = fit_shifted_lognormal(Sample(small_draws))
        large = fit_shifted_lognormal(Sample(large_draws))
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


def test_laplace_fit_and_ks_in_blocks_keep_the_bits_of_the_whole_array_formulas():
    # seven full KS blocks of 26 214 values and a part one of 13 115; the
    # weights are scaled by a power of two, exactly, as the estimators scale them
    rng = np.random.default_rng(8)
    n = 3 * (1 << 16) + 5
    sample = Sample(rng.laplace(1.0, 0.2, n), rng.integers(1, 6, n).astype(float))
    ordered = sample.sorted()
    values, weights = ordered.values, ordered.weights / 8.0
    total = weights.sum()
    mu = float(values[np.searchsorted(np.cumsum(weights), 0.5 * total)])
    sigma = float(np.sum(weights * np.abs(values - mu)) / total)
    fractions = np.cumsum(weights) / total
    below = np.concatenate(([0.0], fractions[:-1]))
    model = laplace_cdf(values, LaplaceParams(mu=mu, sigma=sigma))
    ks = float(np.max(np.maximum(np.abs(fractions - model), np.abs(below - model))))
    result = fit_laplace(sample)
    assert (result.params.mu, result.params.sigma, result.ks_distance) == (mu, sigma, ks)
    assert ks_statistic(sample, lambda x: laplace_cdf(x, result.params)) == ks


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
    # weighted values that hit each bin many times: each bin adds its weights
    # in input order, to the bit of an np.add.at accumulation
    rng = np.random.default_rng(5)
    values, weights = rng.uniform(-0.2, 1.2, 20_000), rng.exponential(1.0, 20_000)
    position = np.rint((values - grid[0]) / (grid[1] - grid[0]))
    inside = (position >= 0) & (position < grid.size)
    counts = np.zeros(grid.size)
    np.add.at(counts, position[inside].astype(int), weights[inside])
    dist, dropped = histogram(Sample(values, weights), grid)
    expected = GriddedDistribution.from_density(grid, counts)
    assert dist.density.tobytes() == expected.density.tobytes()
    assert dropped == 1.0 - weights[inside].sum() / weights.sum()


@pytest.mark.parametrize("far", [1e300, -1e300, 1.7e308, -1.7e308])
def test_histogram_drops_values_far_outside_the_grid_without_casting_them(far):
    # their bin positions lie beyond the int range (or overflow to inf), and
    # pytest turns the cast's RuntimeWarning into an error
    grid = uniform_grid(0.0, 2.0, 201)
    inside = np.array([1.0, 1.1, 1.2])
    dist, dropped = histogram(Sample(np.append(inside, far)), grid)
    assert dropped == 0.25
    np.testing.assert_array_equal(dist.density, histogram(Sample(inside), grid)[0].density)
    assert np.flatnonzero(dist.density).tolist() == [100, 110, 120]


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
