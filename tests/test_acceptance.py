"""Acceptance gate: one test per release criterion.

Each test states its tolerance and time budget inline and fails loudly if
either is missed. Statistical checks pin their seeds; the tolerances were
sized against the sampling spread at the stated sample sizes beforehand.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson
from scipy.special import ndtr

from dispersim.cli import main
from dispersim.dataio import write_sample
from dispersim.estimate import fit_laplace, fit_shifted_lognormal, ks_statistic
from dispersim.fixedpoint import fixed_point_solve
from dispersim.grids import GriddedDistribution, uniform_grid
from dispersim.kinetic import InflowSpec, run, stationary_state
from dispersim.laws import (
    LaplaceParams,
    LognormalParams,
    laplace_density,
    lognormal_density,
    mixture_density,
)
from dispersim.meanprice import SdeParams, simulate_mean_price, walras_rhs
from dispersim.quasistatic import quasi_static_density
from dispersim.samples import Sample


def test_criterion_1_density_normalization_and_variance():
    """100 random laws: unit mass within 1e-9, variance within 1e-6, < 1 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_norm = 0.0
    worst_var = 0.0
    for _ in range(100):
        mu = rng.uniform(0.5, 10.0)
        sigma = rng.uniform(0.05, 2.0)
        params = LaplaceParams(mu=mu, sigma=sigma)
        # 40001 points put a node exactly on the central kink
        p = np.linspace(mu - 40.0 * sigma, mu + 40.0 * sigma, 40001)
        dens = laplace_density(p, params)
        worst_norm = max(worst_norm, abs(simpson(dens, x=p) - 1.0))
        worst_var = max(
            worst_var, abs(simpson(dens * (p - mu) ** 2, x=p) - 2.0 * sigma**2)
        )
    elapsed = time.perf_counter() - start
    assert worst_norm <= 1e-9
    assert worst_var <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_uniform_books_give_exact_parabola():
    """Uniform books: scale 1/6 within 1e-9, parabolic law within 1e-6."""
    grid = uniform_grid(0.0, 1.0, 20001)
    ask = GriddedDistribution.from_density(grid, np.ones(grid.size))
    bid = GriddedDistribution.from_density(grid, np.ones(grid.size))
    dist, sigma_norm = quasi_static_density(ask, bid)
    assert abs(sigma_norm - 1.0 / 6.0) <= 1e-9
    assert np.max(np.abs(dist.density - 6.0 * grid * (1.0 - grid))) <= 1e-6


def test_criterion_3_fixed_point_consistency_and_convergence():
    """Self-consistent seed moves < 1e-3; flat seed converges, all < 5 s."""
    start = time.perf_counter()
    grid = uniform_grid(0.0, 2.0, 4001)
    seed = laplace_density(grid, LaplaceParams(mu=1.0, sigma=0.1))
    result = fixed_point_solve(grid, init=seed, tol=1e-3)
    seed_cum = cumulative_trapezoid(seed, grid, initial=0.0)
    seed_cum /= seed_cum[-1]
    moved = np.max(np.abs(result.distribution.cumulative - seed_cum))
    assert result.n_iterations == 1
    assert moved < 1e-3

    flat = fixed_point_solve(grid, tol=1e-2)
    assert flat.n_iterations <= 200
    occupied = flat.distribution.density > 0.0
    fit = fit_laplace(Sample(grid[occupied], flat.distribution.density[occupied]))
    assert fit.ks_distance < 0.02
    assert time.perf_counter() - start < 5.0


def test_criterion_4_kinetic_run_reproduces_the_sales_law():
    """1e6 transacted units whose binned law fits within KS 0.05, < 60 s."""
    start = time.perf_counter()
    grid = uniform_grid(0.0, 2.0, 401)
    inflow = InflowSpec(5000.0, 5000.0, mu_ref=1.0, sigma_ref=0.2, shape="matched")
    state = stationary_state(grid, 1.0, inflow)
    result = run(state, inflow, dt=0.01, horizon=200.0)
    assert result.event_count >= 999_999.0
    fit = fit_laplace(Sample(grid, result.final_state.cumulative_sales))
    assert fit.ks_distance < 0.05
    assert abs(fit.params.mu - 1.0) < 0.02
    assert time.perf_counter() - start < 60.0


def test_criterion_5_mean_price_ensemble_terminal_law():
    """1e4 paths: log stats within 0.01 of (0, 0.2449), KS < 0.02, < 30 s."""
    start = time.perf_counter()
    params = SdeParams(
        omega0=1.0, noise_amp=0.03,
        dt=1e-3, horizon=1.0, n_paths=10_000, seed=0,
    )
    result = simulate_mean_price(params)
    # the walk runs n_steps * dt, which a horizon need not equal
    target_std = np.sqrt(2.0 * params.noise_amp * params.n_steps * params.dt)
    assert abs(result.log_mean - 0.0) < 0.01
    assert abs(result.log_std - target_std) < 0.01
    logs = np.log(result.terminal)
    ks = ks_statistic(Sample(logs), lambda x: ndtr(x / target_std))
    assert ks < 0.02
    assert time.perf_counter() - start < 30.0


def test_criterion_6_fitters_recover_known_parameters():
    """Scale within 2% for four laws; three-parameter law within 5%; < 30 s."""
    start = time.perf_counter()
    for sigma in (0.125, 0.143, 0.145, 0.2):
        draws = np.random.default_rng(0).laplace(1.0, sigma, 100_000)
        fit = fit_laplace(Sample(draws))
        assert abs(fit.params.sigma - sigma) / sigma < 0.02

    rng = np.random.default_rng(3)
    draws = 0.0245 + 0.41 * np.exp(0.245 * rng.standard_normal(100_000))
    fit = fit_shifted_lognormal(Sample(draws))
    assert abs(fit.params.shift - 0.0245) / 0.0245 < 0.05
    assert abs(fit.params.gamma - 0.41) / 0.41 < 0.05
    assert abs(fit.params.omega - 0.245) / 0.245 < 0.05
    assert time.perf_counter() - start < 30.0


def test_criterion_7_mixture_limits_within_one_percent():
    """Narrow-spread and sharp-conditional limits both within 1%, < 10 s."""
    start = time.perf_counter()
    narrow = LognormalParams(gamma=1.0, omega=0.01)
    p = np.linspace(0.2, 3.0, 57)
    mixed = mixture_density(p, narrow)
    target = laplace_density(p, LaplaceParams(mu=1.0, sigma=1.0))
    assert np.max(np.abs(mixed - target) / target) < 0.01

    law = LognormalParams(gamma=1.0, omega=0.245)
    p = np.linspace(0.5, 2.0, 31)
    mixed = mixture_density(p, law, conditional_scale=0.005, n_nodes=65537, rel_tol=1e-3)
    target = lognormal_density(p, law)
    assert np.max(np.abs(mixed - target) / target) < 0.01
    assert time.perf_counter() - start < 10.0


def test_criterion_8_price_drift_follows_excess_demand():
    """Sign of the drift equals the sign of the imbalance on 1e4 draws."""
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        mu_m = rng.uniform(0.0, 1.0)
        mu = mu_m + rng.uniform(1e-9, 3.0)
        gain = rng.uniform(1e-9, 10.0)
        demand = rng.uniform(0.0, 1000.0)
        supply = rng.uniform(0.0, 1000.0)
        drift = walras_rhs(mu, mu_m, gain, demand, supply)
        assert np.sign(drift) == np.sign(demand - supply)
        assert walras_rhs(mu_m, mu_m, gain, demand, supply) == 0.0


CLI_CONFIGS = {
    "fixed-point": """\
grid.min = 0
grid.max = 2
grid.points = 201
fixedpoint.tol = 1e-2
""",
    "simulate-kinetic": """\
seed = 9
grid.min = 0
grid.max = 2
grid.points = 101
kinetic.eta = 1.0
kinetic.dt = 0.01
kinetic.horizon = 2.0
kinetic.demand_rate = 100
kinetic.supply_rate = 100
kinetic.mu_ref = 1.0
kinetic.sigma_ref = 0.2
kinetic.shape = matched
kinetic.stationary_init = yes
kinetic.jitter = 0.2
""",
    "simulate-meanprice": """\
seed = 4
sde.omega0 = 0.41
sde.noise_amp = 0.03
sde.dt = 0.1
sde.horizon = 1.0
sde.n_paths = 50
sde.store_paths = true
""",
    "mixture": """\
grid.min = 0.2
grid.max = 3.0
grid.points = 41
mixture.gamma = 1.0
mixture.omega = 0.3
""",
}


def test_criterion_9_cli_runs_are_byte_identical(tmp_path):
    """Every subcommand rerun on one config reproduces identical bytes."""
    draws = np.random.default_rng(12).laplace(1.0, 0.2, 1000)
    sample_path = tmp_path / "sample.csv"
    sample_path.write_text(write_sample(Sample(draws)))
    rows = ["good_id,market_id,quarter,price,quantity"]
    rng = np.random.default_rng(13)
    for g in ("rice", "milk"):
        for i in range(5):
            rows.append(f"{g},m{i % 2},2011Q1,{rng.uniform(0.5, 2.0)!r},{i + 1}")
    data_path = tmp_path / "transactions.csv"
    data_path.write_text("\n".join(rows) + "\n")

    configs = dict(CLI_CONFIGS)
    configs["fit"] = f"fit.input = {sample_path}\nfit.family = laplace\n"
    configs["normalize"] = f"normalize.input = {data_path}\nnormalize.grouping = good\n"

    for command, text in configs.items():
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(text)
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert main([command, str(cfg_path), "--out", str(out_a)]) == 0
        assert main([command, str(cfg_path), "--out", str(out_b)]) == 0
        files_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
        files_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
        assert files_a == files_b, f"{command} rerun differed"
        assert "manifest.txt" in files_a
