"""Tests for uniform grids and gridded distributions.

Invariants exercised here:
  * from_density always yields a unit-mass density and a cumulative that
    runs from 0 to 1 without ever decreasing,
  * the cumulative is derived from the density bit for bit as it was when
    it was stored beside it,
  * quantile is the inverse of the cumulative wherever both are defined,
  * cumulative_trapezoid returns scipy's bits without importing scipy.

That a gridded law's ``price,density`` table round-trips every float exactly
is checked on the CLI's ``density.csv`` in test_cli.py.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid as scipy_cumulative_trapezoid

from dispersim.errors import ModelError, ZeroMass
from dispersim.grids import (
    STEP_BUDGET,
    GriddedDistribution,
    cumulative_trapezoid,
    step_count,
    trapezoid,
    uniform_grid,
)
from dispersim.estimate import histogram
from dispersim.fixedpoint import fixed_point_map, fixed_point_solve
from dispersim.kinetic import InflowSpec, MarketState, initial_state, run, stationary_state
from dispersim.quasistatic import SupplyDemandCurves, quasi_static_density
from dispersim.samples import Sample


def test_uniform_grid_endpoints_and_spacing():
    g = uniform_grid(0.0, 2.0, 5)
    assert g.shape == (5,)
    assert g[0] == 0.0
    assert g[-1] == 2.0
    np.testing.assert_allclose(np.diff(g), 0.5)


def test_uniform_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        uniform_grid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        uniform_grid(0.0, 1.0, 1)


@pytest.mark.parametrize("p_min, p_max", [
    (-1e308, 1e308), (0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf),
])
def test_uniform_grid_refuses_a_range_whose_ends_or_span_are_not_finite(p_min, p_max):
    # linspace over such a span returns NaN and inf nodes
    with pytest.raises(ValueError, match=r"grid range \[.*\] must have finite ends and span"):
        uniform_grid(p_min, p_max, 5)


def test_step_count_rounds_and_keeps_the_byte_budget():
    assert step_count(0.3, 1.0) == 3 and step_count(0.25, 1.1) == 4
    assert step_count(1.0, 1.0) == 1
    steps = STEP_BUDGET // 32
    assert step_count(1.0, float(steps), 32) == steps
    with pytest.raises(ValueError, match=r"dt = 1\.0 makes .* past the 1073741824-byte budget"):
        step_count(1.0, float(steps + 1), 32)
    # a count past any budget is still a count when nothing is held per step
    assert step_count(1e-300, 1.0) == round(1.0 / 1e-300)
    with pytest.raises(ValueError, match="horizon / dt overflows"):
        step_count(5e-324, 1.0)
    for dt, horizon, message in [(0.0, 1.0, "dt must be positive"),
                                 (np.nan, 1.0, "dt must be positive"),
                                 (1.0, 0.5, "horizon must be finite and at least dt"),
                                 (0.1, np.inf, "horizon must be finite and at least dt")]:
        with pytest.raises(ValueError, match=message):
            step_count(dt, horizon)


def test_trapezoid_matches_quadratic_rule():
    x = np.linspace(0.0, 1.0, 100001)
    assert trapezoid(x * x, x) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_from_density_normalizes_and_builds_cumulative():
    grid = uniform_grid(0.0, 1.0, 101)
    dist = GriddedDistribution.from_density(grid, np.full(101, 7.0))
    assert trapezoid(dist.density, grid) == pytest.approx(1.0, abs=1e-12)
    assert dist.cumulative[0] == 0.0
    assert dist.cumulative[-1] == 1.0
    assert np.all(np.diff(dist.cumulative) >= 0.0)


def test_from_density_clips_small_negative_values():
    grid = uniform_grid(0.0, 1.0, 11)
    raw = np.ones(11)
    raw[3] = -1e-14
    dist = GriddedDistribution.from_density(grid, raw)
    assert np.all(dist.density >= 0.0)


def test_from_density_rejects_zero_mass():
    grid = uniform_grid(0.0, 1.0, 11)
    with pytest.raises(ZeroMass, match="zero total mass"):
        GriddedDistribution.from_density(grid, np.zeros(11))


def test_from_density_rejects_shape_mismatch():
    grid = uniform_grid(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        GriddedDistribution.from_density(grid, np.ones(10))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_density_refuses_non_finite_values(bad):
    raw = np.ones(5)
    raw[1] = bad
    with pytest.raises(ModelError, match="non-finite"):
        GriddedDistribution.from_density(uniform_grid(0.0, 1.0, 5), raw)


def test_from_density_rescales_a_total_that_overflows():
    grid = uniform_grid(0.0, 1.0, 5)
    dist = GriddedDistribution.from_density(grid, np.full(5, 1e308))
    np.testing.assert_array_equal(dist.density, np.ones(5))
    np.testing.assert_array_equal(dist.cumulative, grid)
    # a grid so wide that even the rescaled total would overflow has a span
    # past the float range, which the grid rule refuses, as uniform_grid does
    with pytest.raises(ValueError, match="finite steps and span") as exc:
        GriddedDistribution.from_density(np.array([-1.5e308, 0.0, 1.5e308]), np.ones(3))
    assert not isinstance(exc.value, ModelError)


def test_from_density_refuses_a_decreasing_grid_before_integrating():
    # the trapezoid over a decreasing grid is negative; it must not pass for
    # a density of zero mass (a model refusal) when the grid itself is wrong
    with pytest.raises(ValueError, match="strictly increasing") as exc:
        GriddedDistribution.from_density(np.array([1.0, 0.5, 0.0]), np.ones(3))
    assert not isinstance(exc.value, ModelError)
    with pytest.raises(ValueError, match="strictly increasing"):
        GriddedDistribution.from_density(np.array([0.0, 0.5, 0.5]), np.ones(3))


_MATCHED = InflowSpec(1.0, 1.0, 0.0, 1.0, shape="matched")

# Each gridded entry point, called on a grid and arrays of n values laid on it.
_GRIDDED = {
    "GriddedDistribution": lambda g, n: GriddedDistribution(g, np.ones(n)),
    "from_density": lambda g, n: GriddedDistribution.from_density(g, np.ones(n)),
    "MarketState": lambda g, n: MarketState(g, np.ones(n), np.ones(n), eta=1.0),
    "shape_densities": lambda g, n: _MATCHED.shape_densities(g),
    "bin_weights": lambda g, n: _MATCHED.bin_weights(g),
    "initial_state": lambda g, n: initial_state(g, 1.0, _MATCHED),
    "stationary_state": lambda g, n: stationary_state(g, 1.0, _MATCHED),
    "SupplyDemandCurves": lambda g, n: SupplyDemandCurves(g, np.ones(n), np.ones(n)),
    "from_bin_stocks": lambda g, n: SupplyDemandCurves.from_bin_stocks(g, np.ones(n), np.ones(n)),
    "quasi_static_density": lambda g, n: quasi_static_density(
        np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n), g),
    "fixed_point_map": lambda g, n: fixed_point_map(g, np.ones(n)),
    "fixed_point_solve": lambda g, n: fixed_point_solve(g, np.ones(n)),
    "histogram": lambda g, n: histogram(Sample(np.zeros(1)), g),
}
_TAKES_ARRAYS = ("GriddedDistribution", "from_density", "MarketState", "SupplyDemandCurves",
                 "from_bin_stocks", "quasi_static_density", "fixed_point_map",
                 "fixed_point_solve")


@pytest.mark.parametrize("name", sorted(_GRIDDED))
def test_every_gridded_entry_point_refuses_a_bad_grid_or_shape_without_warning(name):
    call = _GRIDDED[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # a step past the float range, a span past it from finite steps, and
        # a step to an infinite node
        for grid in (np.array([-1.7e308, 1.7e308]), np.array([-1.7e308, 0.0, 1.7e308]),
                     np.array([0.0, 1.0, np.inf])):
            with pytest.raises(ValueError, match="finite steps"):
                call(grid, grid.size)
        if name in _TAKES_ARRAYS:
            with pytest.raises(ValueError, match="match the grid shape"):
                call(np.linspace(0.0, 1.0, 5), 4)
    assert caught == []


def _stored_cumulative(grid, raw):
    """The cumulative ``from_density`` used to store, from the raw density."""
    density = np.clip(np.asarray(raw, dtype=float), 0.0, None)
    with np.errstate(over="ignore"):
        total = trapezoid(density, grid)
        if not 0.0 < total < np.inf:
            density = density / np.max(density)
            total = trapezoid(density, grid)
    cumulative = scipy_cumulative_trapezoid(density / total, grid, initial=0.0)
    return np.clip(cumulative / cumulative[-1], 0.0, 1.0)


def _sales_of_a_short_kinetic_run():
    grid = uniform_grid(0.0, 2.0, 201)
    inflow = InflowSpec(10.0, 10.0, 1.0, 0.2, shape="monotone")
    result = run(initial_state(grid, 0.5, inflow, 5.0, 5.0), inflow, dt=0.1, horizon=5.0)
    return grid, result.final_state.cumulative_sales, result.sales_histogram


@pytest.mark.parametrize("case", ["flat", "overflow-rescaled", "kinetic-sales"])
def test_derived_cumulative_is_bitwise_the_formerly_stored_one(case):
    if case == "kinetic-sales":
        grid, raw, dist = _sales_of_a_short_kinetic_run()
    else:
        grid = uniform_grid(0.0, 1.0, 101)
        raw = np.full(101, 7.0 if case == "flat" else 1e308)
        dist = GriddedDistribution.from_density(grid, raw)
    expected = _stored_cumulative(grid, raw)
    assert dist.cumulative.tobytes() == expected.tobytes()
    assert dist.cumulative is dist.cumulative  # derived once, then cached


def test_constructor_rejects_unsorted_grid():
    grid = np.array([0.0, 0.5, 0.4, 1.0])
    with pytest.raises(ValueError):
        GriddedDistribution(grid, np.ones(4))


def test_constructor_rejects_unnormalized_density():
    grid = uniform_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        GriddedDistribution(grid, np.full(3, 2.0))
    with pytest.raises(ValueError, match="match the grid shape"):
        GriddedDistribution(grid, np.ones(4))
    # unit mass, but one value below the -1e-9 tolerance
    with pytest.raises(ValueError, match="negative values"):
        GriddedDistribution(grid, np.array([-2e-9, 1.5, 1.0 + 2e-9]))


def test_constructor_rejects_non_finite_values():
    grid = uniform_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="finite"):
        GriddedDistribution(grid, np.array([1.0, np.nan, 1.0]))


def test_uniform_distribution_quantiles_are_linear():
    grid = uniform_grid(0.0, 1.0, 1001)
    dist = GriddedDistribution.from_density(grid, np.ones(1001))
    for q in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
        assert dist.quantile(q) == pytest.approx(q, abs=1e-12)
    assert dist.median() == pytest.approx(0.5, abs=1e-12)


def test_quantile_rejects_out_of_range():
    grid = uniform_grid(0.0, 1.0, 11)
    dist = GriddedDistribution.from_density(grid, np.ones(11))
    with pytest.raises(ValueError):
        dist.quantile(-0.01)
    with pytest.raises(ValueError):
        dist.quantile(1.01)


def test_quantile_inside_a_segment_of_subnormal_mass():
    # the cumulative rises by about 1.5e-313 per segment before the last node,
    # so interpolating price against it overflows the slope
    grid = uniform_grid(0.0, 1.0, 4)
    dist = GriddedDistribution.from_density(grid, np.array([0.0, 2.2250738585e-313, 0.0, 1.5]))
    q = 0.5 * (dist.cumulative[1] + dist.cumulative[2])
    assert dist.quantile(q) == pytest.approx(0.5, abs=1e-9)
    assert dist.quantile(dist.cumulative[1]) == grid[1]


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=40),
    st.floats(min_value=0.0, max_value=1.0),
)
# subnormal values whose trapezoid underflows to zero on the unit grid
@example(values=[0.0, 5e-324, 5e-324], q=0.0)
# a quantile inside a segment of subnormal mass
@example(values=[0.0, 2.2250738585e-313, 0.0, 1.5], q=2.2250738585e-313)
def test_from_density_invariants_hold_for_arbitrary_shapes(values, q):
    raw = np.asarray(values)
    if trapezoid(raw, np.arange(raw.size, dtype=float)) <= 0.0:
        return
    grid = uniform_grid(0.0, 1.0, raw.size)
    dist = GriddedDistribution.from_density(grid, raw)
    assert trapezoid(dist.density, grid) == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(dist.cumulative) >= -1e-15)
    x = dist.quantile(q)
    assert grid[0] <= x <= grid[-1]


@given(
    n=st.integers(min_value=2, max_value=40_001),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    uniform=st.booleans(),
    scale=st.sampled_from([1e-310, 1e-300, 1e-6, 1.0, 1e6, 1e300]),
)
@example(n=2, seed=0, uniform=True, scale=1.0)
@example(n=40_001, seed=1, uniform=False, scale=1.0)
# subnormal values: about half the areas are odd multiples of 5e-324, so
# halving them rounds, and must round as scipy's ``/ 2.0`` does
@example(n=1001, seed=3, uniform=False, scale=1e-310)
def test_cumulative_trapezoid_is_bit_equal_to_scipy(n, seed, uniform, scale):
    rng = np.random.default_rng(seed)
    if uniform:
        grid = uniform_grid(-1.0, 2.0, n)
    else:
        grid = np.cumsum(rng.uniform(1e-3, 1.0, n)) - 5.0
    values = scale * rng.standard_normal(n)
    ours = cumulative_trapezoid(values, grid)
    ref = scipy_cumulative_trapezoid(values, grid, initial=0.0)
    assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()
