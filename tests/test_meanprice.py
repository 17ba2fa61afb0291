"""Tests for the mean-price drift law and the multiplicative gap ensemble."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import kstest

from dispersim.errors import DegenerateSample
from dispersim.meanprice import (
    EnsembleResult,
    SdeParams,
    implied_lognormal,
    simulate_mean_price,
    walras_rhs,
)


def _params(**overrides) -> SdeParams:
    base = dict(
        omega0=1.0,
        noise_amp=0.03,
        dt=0.1,
        horizon=1.0,
        n_paths=64,
        seed=0,
    )
    base.update(overrides)
    return SdeParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(omega0=0.0)
    with pytest.raises(ValueError):
        _params(noise_amp=-0.1)
    with pytest.raises(ValueError):
        _params(dt=0.0)
    with pytest.raises(ValueError):
        _params(horizon=0.05)
    with pytest.raises(ValueError):
        _params(n_paths=0)
    # NaN fails every comparison, so each check is written to refuse it
    for name in ("omega0", "noise_amp", "dt", "horizon"):
        with pytest.raises(ValueError, match=name):
            _params(**{name: np.nan})
    for name in ("omega0", "noise_amp", "horizon"):
        with pytest.raises(ValueError, match=name):
            _params(**{name: np.inf})


def test_n_steps_rounds_to_nearest():
    assert _params(dt=0.1, horizon=1.0).n_steps == 10
    assert _params(dt=0.3, horizon=1.0).n_steps == 3
    assert _params(dt=0.25, horizon=1.1).n_steps == 4


def test_walras_drift_examples():
    assert walras_rhs(1.5, 0.5, 0.01, 60.0, 50.0) == pytest.approx(0.1)
    assert walras_rhs(1.5, 0.5, 0.01, 50.0, 50.0) == 0.0
    assert walras_rhs(0.5, 0.5, 5.0, 90.0, 10.0) == 0.0
    with pytest.raises(ValueError):
        walras_rhs(0.4, 0.5, 0.01, 60.0, 50.0)
    with pytest.raises(ValueError):
        walras_rhs(1.5, 0.5, -0.01, 60.0, 50.0)


def test_walras_drift_sign_follows_imbalance():
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        mu_m = rng.uniform(0.0, 1.0)
        mu = mu_m + rng.uniform(1e-6, 2.0)
        gain = rng.uniform(1e-6, 5.0)
        demand = rng.uniform(0.0, 100.0)
        supply = rng.uniform(0.0, 100.0)
        drift = walras_rhs(mu, mu_m, gain, demand, supply)
        assert np.sign(drift) == np.sign(demand - supply)


def test_zero_noise_keeps_every_path_at_start():
    result = simulate_mean_price(_params(noise_amp=0.0, n_paths=16))
    np.testing.assert_array_equal(result.terminal, np.full(16, 1.0))
    assert result.log_mean == 0.0
    assert result.log_std == 0.0


def test_gaps_stay_positive():
    result = simulate_mean_price(_params(noise_amp=2.0, n_paths=256, horizon=5.0))
    assert np.all(result.terminal > 0.0)


def test_single_path_has_zero_log_std():
    result = simulate_mean_price(_params(n_paths=1))
    assert result.log_std == 0.0


def test_same_seed_reproduces_the_ensemble():
    a = simulate_mean_price(_params(seed=7))
    b = simulate_mean_price(_params(seed=7))
    np.testing.assert_array_equal(a.terminal, b.terminal)
    c = simulate_mean_price(_params(seed=8))
    assert not np.array_equal(a.terminal, c.terminal)


def test_each_path_is_independent_of_ensemble_size():
    small = simulate_mean_price(_params(n_paths=8))
    large = simulate_mean_price(_params(n_paths=64))
    np.testing.assert_array_equal(small.terminal, large.terminal[:8])


def test_stored_paths_are_a_prefix_of_a_larger_ensemble():
    small = simulate_mean_price(_params(n_paths=8), store_paths=True)
    large = simulate_mean_price(_params(n_paths=64), store_paths=True)
    np.testing.assert_array_equal(small.terminal, large.terminal[:8])
    np.testing.assert_array_equal(small.paths, large.paths[:8])


def test_different_seeds_draw_different_paths():
    a = simulate_mean_price(_params(n_paths=8, seed=3), store_paths=True)
    b = simulate_mean_price(_params(n_paths=8, seed=4), store_paths=True)
    assert not np.any(a.terminal == b.terminal)
    assert not np.any(a.paths[:, 1:] == b.paths[:, 1:])


def test_stored_paths_follow_the_step_by_step_walk_law():
    # the bridge must give every step the walk's increment law, not only
    # the pinned end: at the midpoint an unpinned or unscaled bridge has
    # the wrong variance
    params = _params(omega0=0.41, noise_amp=0.03, dt=0.02, horizon=1.0,
                     n_paths=4000, seed=11)
    result = simulate_mean_price(params, store_paths=True)
    logs = np.log(result.paths)
    step_std = np.sqrt(2.0 * 0.03 * 0.02)
    increments = np.diff(logs, axis=1)
    assert np.std(increments) == pytest.approx(step_std, rel=0.01)
    assert abs(np.mean(increments)) < 0.01 * step_std
    half = params.n_steps // 2
    mid = kstest(logs[:, half], "norm", args=(np.log(0.41), step_std * np.sqrt(half)))
    assert mid.pvalue > 1e-3


def test_terminal_only_run_allocates_per_path_not_per_step():
    # 1e9 path steps: drawing the increments would allocate 8 MB per path
    params = _params(dt=1e-6, horizon=1.0, n_paths=1000)
    assert params.n_steps == 1_000_000
    tracemalloc.start()
    try:
        result = simulate_mean_price(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.terminal.shape == (1000,)
    assert peak < 1_000_000


def test_stored_paths_have_expected_geometry():
    params = _params(n_paths=5, dt=0.25, horizon=1.0)
    result = simulate_mean_price(params, store_paths=True)
    assert isinstance(result, EnsembleResult)
    assert result.paths.shape == (5, 5)
    np.testing.assert_array_equal(result.paths[:, 0], np.full(5, 1.0))
    np.testing.assert_array_equal(result.paths[:, -1], result.terminal)
    assert np.all(result.paths > 0.0)


def test_stored_and_unstored_terminals_agree():
    with_paths = simulate_mean_price(_params(), store_paths=True)
    without = simulate_mean_price(_params())
    np.testing.assert_allclose(with_paths.terminal, without.terminal, rtol=1e-12)


def test_terminal_values_do_not_depend_on_storing_paths():
    # at this size a cumsum-based terminal differs from the sum in the last
    # bit for most paths, so only one summation for both settings passes
    params = _params(noise_amp=0.03, dt=1e-3, horizon=1.0, n_paths=300)
    with_paths = simulate_mean_price(params, store_paths=True)
    without = simulate_mean_price(params)
    assert with_paths.terminal.tobytes() == without.terminal.tobytes()
    assert with_paths.paths[:, -1].tobytes() == with_paths.terminal.tobytes()
    assert (with_paths.log_mean, with_paths.log_std) == (without.log_mean, without.log_std)


def test_ensemble_statistics_match_the_exact_law():
    params = _params(noise_amp=0.03, horizon=1.0, dt=0.01, n_paths=4000)
    result = simulate_mean_price(params)
    target_std = np.sqrt(2.0 * 0.03 * 1.0)
    assert result.log_mean == pytest.approx(0.0, abs=0.02)
    assert result.log_std == pytest.approx(target_std, abs=0.02)


def test_implied_lognormal_matches_walk_parameters():
    law = implied_lognormal(_params(omega0=0.41, noise_amp=0.03, horizon=1.0))
    assert law.gamma == pytest.approx(0.41)
    assert law.omega == pytest.approx(np.sqrt(0.06), rel=1e-12)
    assert law.shift == 0.0


def test_implied_lognormal_can_hit_a_requested_spread():
    # choosing 2 D T = (0.245)^2 pins the terminal log spread at 0.245
    target = 0.245
    noise = target**2 / 2.0
    law = implied_lognormal(_params(omega0=0.41, noise_amp=noise, horizon=1.0))
    assert law.omega == pytest.approx(target, rel=1e-12)


def test_implied_lognormal_uses_the_horizon_the_walk_runs():
    # dt = 0.3 rounds a horizon of 1 to three steps, T = 0.9
    params = _params(noise_amp=0.03, dt=0.3, horizon=1.0, n_paths=20_000, seed=2)
    law = implied_lognormal(params)
    assert law.omega == pytest.approx(np.sqrt(2.0 * 0.03 * 0.9), rel=1e-12)
    assert simulate_mean_price(params).log_std == pytest.approx(law.omega, abs=0.005)


def test_implied_lognormal_rejects_point_mass():
    with pytest.raises(DegenerateSample):
        implied_lognormal(_params(noise_amp=0.0))


@given(st.integers(min_value=0, max_value=2**20))
def test_log_mean_is_exactly_mean_of_log_terminals(seed):
    result = simulate_mean_price(_params(n_paths=8, seed=seed))
    assert result.log_mean == pytest.approx(
        float(np.mean(np.log(result.terminal))), rel=1e-12, abs=1e-12
    )
