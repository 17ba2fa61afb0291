"""Tests for the self-consistency map on sales laws and its solver."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from dispersim.errors import NonConvergence, ZeroMass
from dispersim.estimate import fit_laplace
from dispersim.fixedpoint import FixedPointResult, fixed_point_map, fixed_point_solve
from dispersim.grids import GriddedDistribution, trapezoid, uniform_grid
from dispersim.laws import LaplaceParams, laplace_density
from dispersim.samples import Sample


def test_map_output_is_a_unit_density():
    grid = uniform_grid(0.0, 2.0, 1001)
    out = fixed_point_map(grid, np.ones(1001) / 2.0)
    assert trapezoid(out, grid) == pytest.approx(1.0, abs=1e-12)
    assert np.all(out >= 0.0)


def test_map_of_uniform_is_a_tent():
    grid = uniform_grid(0.0, 2.0, 2001)
    out = fixed_point_map(grid, np.ones(2001) / 2.0)
    tent = 1.0 - np.abs(grid - 1.0)
    np.testing.assert_allclose(out, tent, atol=1e-12)


def test_map_rejects_zero_mass():
    grid = uniform_grid(0.0, 1.0, 11)
    with pytest.raises(ZeroMass, match="no mass on the grid"):
        fixed_point_map(grid, np.zeros(11))
    # a decreasing grid is a wrong argument, not a density without mass
    with pytest.raises(ValueError, match="strictly increasing"):
        fixed_point_map(grid[::-1].copy(), np.ones(11))


def test_two_sided_exponential_maps_almost_onto_itself():
    grid = uniform_grid(0.0, 2.0, 2001)
    params = LaplaceParams(mu=1.0, sigma=0.1)
    dens = laplace_density(grid, params)
    out = fixed_point_map(grid, dens)
    cum_in = cumulative_trapezoid(dens, grid, initial=0.0)
    cum_out = cumulative_trapezoid(out, grid, initial=0.0)
    # the only motion is the window-truncation correction
    assert np.max(np.abs(cum_out / cum_out[-1] - cum_in / cum_in[-1])) < 1e-3


@pytest.mark.parametrize("mass", [0.45, 3.0])
def test_map_keeps_the_median_of_a_seed_of_any_mass(mass):
    grid = uniform_grid(0.0, 2.0, 4001)
    seed = mass * laplace_density(grid, LaplaceParams(mu=1.0, sigma=0.1))
    out = GriddedDistribution(grid, fixed_point_map(grid, seed))
    assert abs(out.median() - 1.0) <= grid[1] - grid[0]


def test_solver_accepts_self_consistent_seed_in_one_sweep():
    grid = uniform_grid(0.0, 2.0, 2001)
    seed = laplace_density(grid, LaplaceParams(mu=1.0, sigma=0.1))
    result = fixed_point_solve(grid, init=seed, tol=1e-3)
    assert isinstance(result, FixedPointResult)
    assert result.n_iterations == 1
    assert result.gap < 1e-3
    seed_cum = cumulative_trapezoid(seed, grid, initial=0.0)
    seed_cum /= seed_cum[-1]
    assert np.max(np.abs(result.distribution.cumulative - seed_cum)) < 1e-3


def test_solver_from_flat_seed_lands_near_two_sided_exponential():
    grid = uniform_grid(0.0, 2.0, 2001)
    result = fixed_point_solve(grid, tol=1e-2)
    assert result.n_iterations <= 200
    dist = result.distribution
    occupied = dist.density > 0.0
    fit = fit_laplace(Sample(grid[occupied], dist.density[occupied]))
    assert fit.ks_distance < 0.02
    # the stationary shape peaks where the cumulative crosses one half
    peak = grid[np.argmax(dist.density)]
    assert abs(peak - dist.median()) < 0.05


def test_solver_iterates_are_the_public_map_applied_repeatedly():
    grid = uniform_grid(0.0, 2.0, 2001)
    result = fixed_point_solve(grid, tol=1e-2)
    density = np.full(grid.shape, 0.5)
    for _ in range(result.n_iterations):
        density = fixed_point_map(grid, density)
    np.testing.assert_array_equal(result.distribution.density, density)


def test_solution_cumulative_is_bitwise_the_normalized_running_integral():
    grid = uniform_grid(0.0, 2.0, 401)
    result = fixed_point_solve(grid, tol=1e-2)
    density = np.full(grid.shape, 0.5)
    for _ in range(result.n_iterations):
        density = fixed_point_map(grid, density)
    cum = cumulative_trapezoid(density, grid, initial=0.0)
    expected = np.clip(cum / cum[-1], 0.0, 1.0)
    assert result.distribution.cumulative.tobytes() == expected.tobytes()


def test_resolving_from_a_solution_barely_moves():
    grid = uniform_grid(0.0, 2.0, 2001)
    first = fixed_point_solve(grid, tol=1e-2)
    again = fixed_point_solve(grid, init=first.distribution.density, tol=1e-2)
    assert again.n_iterations == 1
    gap = np.max(
        np.abs(again.distribution.cumulative - first.distribution.cumulative)
    )
    assert gap < 1e-2


def test_zero_iteration_budget_is_reported_as_nonconvergence():
    grid = uniform_grid(0.0, 2.0, 101)
    with pytest.raises(NonConvergence) as exc:
        fixed_point_solve(grid, max_iter=0)
    assert exc.value.last_gap == np.inf


def test_unreachable_tolerance_reports_last_gap():
    grid = uniform_grid(0.0, 2.0, 501)
    with pytest.raises(NonConvergence) as exc:
        fixed_point_solve(grid, tol=1e-12, max_iter=3)
    assert np.isfinite(exc.value.last_gap)
    assert exc.value.last_gap > 1e-12


def test_solver_validates_arguments():
    grid = uniform_grid(0.0, 2.0, 101)
    with pytest.raises(ValueError):
        fixed_point_solve(np.array([0.0, 1.0]), tol=1e-2)
    # a decreasing grid is a wrong argument, not a density without mass
    with pytest.raises(ValueError, match="strictly increasing"):
        fixed_point_solve(grid[::-1].copy(), tol=1e-2)
    with pytest.raises(ValueError):
        fixed_point_solve(grid, tol=0.0)
    # a NaN tol is a wrong argument, not a solve that fails to converge
    with pytest.raises(ValueError, match="tol"):
        fixed_point_solve(grid, tol=np.nan)
    with pytest.raises(ValueError):
        fixed_point_solve(grid, max_iter=-1)
    with pytest.raises(ValueError):
        fixed_point_solve(grid, init=np.ones(100))
    with pytest.raises(ValueError):
        fixed_point_solve(grid, init=-np.ones(101))
    with pytest.raises(ValueError, match="init density is identically zero"):
        fixed_point_solve(grid, np.zeros(101))


def test_solution_distribution_satisfies_distribution_invariants():
    grid = uniform_grid(0.5, 1.5, 801)
    result = fixed_point_solve(grid, tol=1e-2)
    dist = result.distribution
    assert trapezoid(dist.density, grid) == pytest.approx(1.0, abs=1e-9)
    assert dist.cumulative[0] == 0.0
    assert dist.cumulative[-1] == 1.0
    assert np.all(np.diff(dist.cumulative) >= 0.0)
