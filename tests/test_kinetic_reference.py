"""Differential tests of the blocked kinetic step loop against a per-step loop.

``reference_run`` below is the step-by-step ``kinetic.run`` that the blocked
loop replaced, kept verbatim apart from its name, the lines marked
``# depletion`` that track the worst depletion fraction, and its return
value, a ``ReferenceResult`` with the old fields. On generated markets the
blocked loop must return bit-equal arrays and numbers in every field, or
raise the same exception class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dispersim.errors import StabilityViolation, ZeroSalesVolume
from dispersim.grids import GriddedDistribution, uniform_grid
from dispersim.kinetic import (
    STABILITY_BOUND,
    InflowSpec,
    MarketState,
    _block_steps,
    initial_state,
    run,
    stationary_state,
)


@dataclass(frozen=True)
class ReferenceResult:
    sales_histogram: GriddedDistribution
    times: np.ndarray
    x_series: np.ndarray
    z_series: np.ndarray
    sales_rate_series: np.ndarray
    event_count: float
    cap_hits: int
    worst_depletion: float
    final_state: MarketState


def reference_run(
    initial: MarketState,
    inflow: InflowSpec,
    dt: float,
    horizon: float,
    seed: int = 0,
) -> ReferenceResult:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if horizon < dt:
        raise ValueError("horizon must be at least dt")
    worst = initial.eta * dt * max(
        float(np.max(initial.x_bins)), float(np.max(initial.z_bins)), 0.0
    )
    if worst >= STABILITY_BOUND:
        raise StabilityViolation(
            f"eta * stock * dt = {worst:.3g} violates the stability bound "
            f"{STABILITY_BOUND}; shrink dt or eta"
        )
    n_steps = max(int(round(horizon / dt)), 1)
    rng = np.random.default_rng(seed)

    d_weights, s_weights = inflow.bin_weights(initial.grid)
    demand_in = inflow.demand_rate * dt * d_weights
    supply_in = inflow.supply_rate * dt * s_weights
    eta_dt = initial.eta * dt

    grid = initial.grid
    x = initial.x_bins.copy()
    z = initial.z_bins.copy()
    sales = initial.cumulative_sales.copy()
    cap_hits = initial.cap_hits
    times = initial.clock + dt * np.arange(1, n_steps + 1)
    x_series = np.empty(n_steps)
    z_series = np.empty(n_steps)
    sales_rate = np.empty(n_steps)

    for k in range(n_steps):
        worst = max(worst, eta_dt * float(np.max(x)), eta_dt * float(np.max(z)))  # depletion
        uncapped = eta_dt * x * z
        available = np.minimum(x, z)
        transacted = np.minimum(uncapped, available)
        cap_hits += int(np.count_nonzero(uncapped > available))
        if inflow.jitter > 0.0:
            xi_d, xi_s = rng.standard_normal(2)
            half_var = 0.5 * inflow.jitter**2
            d_factor = np.exp(inflow.jitter * xi_d - half_var)
            s_factor = np.exp(inflow.jitter * xi_s - half_var)
        else:
            d_factor = s_factor = 1.0
        x = x - transacted + d_factor * demand_in
        z = z - transacted + s_factor * supply_in
        sales += transacted
        x_series[k] = x.sum()
        z_series[k] = z.sum()
        sales_rate[k] = float(transacted.sum()) / dt

    event_count = float(sales.sum()) - initial.event_count
    if event_count <= 0.0:
        raise ZeroSalesVolume("no units transacted over the whole run")
    final_state = MarketState(
        grid=grid, x_bins=x, z_bins=z, eta=initial.eta,
        clock=initial.clock + n_steps * dt, cumulative_sales=sales,
        cap_hits=cap_hits,
    )
    return ReferenceResult(
        sales_histogram=GriddedDistribution.from_density(grid, sales),
        times=times,
        x_series=x_series,
        z_series=z_series,
        sales_rate_series=sales_rate,
        event_count=event_count,
        cap_hits=cap_hits,
        worst_depletion=worst,
        final_state=final_state,
    )


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_outcome(initial, inflow, dt, horizon, seed):
    """Both loops return bit-equal results or raise the same class."""
    try:
        expected = reference_run(initial, inflow, dt, horizon, seed)
    except Exception as exc:  # the blocked loop must refuse the same way
        with pytest.raises(Exception) as refused:
            run(initial, inflow, dt, horizon, seed)
        assert type(refused.value) is type(exc)
        return None
    got = run(initial, inflow, dt, horizon, seed)
    for name in ("times", "x_series", "z_series", "sales_rate_series"):
        assert _same_bits(getattr(got, name), getattr(expected, name)), name
    for name in ("grid", "density", "cumulative"):
        assert _same_bits(getattr(got.sales_histogram, name),
                          getattr(expected.sales_histogram, name)), name
    for name in ("grid", "x_bins", "z_bins", "cumulative_sales"):
        assert _same_bits(getattr(got.final_state, name),
                          getattr(expected.final_state, name)), name
    assert got.final_state.eta == expected.final_state.eta
    assert _same_bits(got.final_state.clock, expected.final_state.clock)
    assert got.final_state.cap_hits == expected.final_state.cap_hits
    assert got.cap_hits == expected.cap_hits
    assert _same_bits(got.event_count, expected.event_count)
    assert _same_bits(got.worst_depletion, expected.worst_depletion)
    return got


@st.composite
def _markets(draw):
    bins = draw(st.one_of(st.integers(2, 12), st.integers(13, 3000)))
    block = _block_steps(bins)
    n_steps = draw(st.sampled_from(
        [1, max(block - 1, 1), block, block + 1, 3 * block + 2]))
    dt = draw(st.sampled_from([0.001, 0.01, 0.05, 0.2]))
    eta = draw(st.sampled_from([0.1, 1.0, 3.0, 0.0]))
    inflow = InflowSpec(
        demand_rate=draw(st.sampled_from([100.0, 1.0, 500.0, 0.0])),
        supply_rate=draw(st.sampled_from([100.0, 1.0, 2000.0, 0.0])),
        mu_ref=1.0,
        sigma_ref=draw(st.sampled_from([0.1, 0.2, 0.5])),
        shape=draw(st.sampled_from(["monotone", "matched"])),
        jitter=draw(st.sampled_from([0.0, 0.3])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # stocks up to just past the stability bound at t = 0
    scale = draw(st.sampled_from([0.5, 0.0, 1.1])) * STABILITY_BOUND / max(eta * dt, 1e-12)
    grid = uniform_grid(0.0, 2.0, bins)
    continuing = draw(st.booleans())
    initial = MarketState(
        grid,
        scale * rng.uniform(0.0, 1.0, bins),
        scale * rng.uniform(0.0, 1.0, bins),
        eta,
        clock=float(rng.uniform(0.0, 10.0)) if continuing else 0.0,
        cumulative_sales=rng.uniform(0.0, 5.0, bins) if continuing else None,
        cap_hits=int(rng.integers(0, 1000)) if continuing else 0,
    )
    return initial, inflow, dt, n_steps * dt, draw(st.integers(0, 2**16))


@settings(max_examples=150)
@given(_markets())
def test_blocked_loop_matches_the_per_step_loop(market):
    _assert_same_outcome(*market)


@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("jitter", [0.0, 0.2])
@pytest.mark.parametrize("bins", [2, 3, 101])
def test_block_edges_match_the_per_step_loop(bins, jitter, n_steps):
    grid = uniform_grid(0.0, 2.0, bins)
    inflow = InflowSpec(100.0, 100.0, 1.0, 0.2, shape="monotone", jitter=jitter)
    initial = initial_state(grid, 1.0, inflow, x_total=0.05, z_total=0.05)
    assert _assert_same_outcome(initial, inflow, 0.01, n_steps * 0.01, 7) is not None


def test_cap_hitting_run_from_empty_books_matches_the_per_step_loop():
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(500.0, 100.0, mu_ref=1.0, sigma_ref=0.2, shape="monotone")
    initial = initial_state(grid, 1.0, inflow)
    got = _assert_same_outcome(initial, inflow, 0.05, 20.0, 0)
    assert got.cap_hits == 24_213
    assert got.worst_depletion > STABILITY_BOUND


def test_continued_run_matches_the_per_step_loop():
    grid = uniform_grid(0.0, 2.0, 2001)
    inflow = InflowSpec(100.0, 100.0, 1.0, 0.2, shape="matched", jitter=0.2)
    later = run(initial_state(grid, 1.0, inflow, 1.0, 1.0), inflow, 0.01, 0.5, seed=3)
    _assert_same_outcome(later.final_state, inflow, 0.01, 0.5, 5)

    grid = uniform_grid(0.0, 2.0, 101)
    flooded = InflowSpec(500.0, 100.0, mu_ref=1.0, sigma_ref=0.2, shape="monotone")
    capped = run(initial_state(grid, 1.0, flooded), flooded, 0.05, 10.0).final_state
    assert capped.clock > 0.0 and capped.event_count > 0.0 and capped.cap_hits > 0
    _assert_same_outcome(capped, flooded, 0.05, 10.0, 6)


@example(dt=0.0, horizon=1.0)
@example(dt=-0.1, horizon=1.0)
@example(dt=0.5, horizon=0.25)
@example(dt=0.05, horizon=0.07)
@given(dt=st.one_of(st.floats(-1.0, 0.0), st.floats(0.01, 1.0)),
       horizon=st.floats(-1.0, 2.0))
def test_step_size_refusals_match_the_per_step_loop(dt, horizon):
    grid = uniform_grid(0.0, 2.0, 5)
    inflow = InflowSpec(1.0, 1.0, 1.0, 0.2)
    initial = MarketState(grid, np.full(5, 0.5), np.full(5, 0.5), eta=0.1)
    _assert_same_outcome(initial, inflow, dt, horizon, 0)


# Each block first runs without the cap and keeps those bits when its peak
# entering stock keeps eta * dt * peak below 1/2; otherwise it reruns with
# the cap. The cases below take each way through that check, and the last
# three reach the cap only after a first block that stays slack.


def test_run_whose_blocks_are_all_slack_matches_the_per_step_loop():
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(100.0, 100.0, 1.0, 0.2, shape="matched", jitter=0.2)
    initial = stationary_state(grid, 1.0, inflow)
    got = _assert_same_outcome(initial, inflow, 0.01, 200 * 0.01, 4)
    assert got.worst_depletion < 0.5 and got.cap_hits == 0


def test_block_rerun_with_the_cap_but_no_hit_matches_the_per_step_loop():
    # the stationary stocks sit at eta * dt * stock of about 0.63, where the
    # slack check fails but eta * dt * x * z stays below min(x, z)
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(3200.0, 3200.0, 1.0, 0.2, shape="matched")
    initial = initial_state(grid, 1.0, inflow)
    got = _assert_same_outcome(initial, inflow, 0.05, 200 * 0.05, 0)
    assert 0.5 <= got.worst_depletion < 1.0 and got.cap_hits == 0


def test_jittered_run_that_reaches_the_cap_partway_matches_the_per_step_loop():
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(500.0, 100.0, 1.0, 0.2, shape="monotone", jitter=0.2)
    initial = initial_state(grid, 1.0, inflow)
    block = _block_steps(grid.size)
    first = _assert_same_outcome(initial, inflow, 0.02, block * 0.02, 1)
    assert first.worst_depletion < 0.5 and first.cap_hits == 0
    got = _assert_same_outcome(initial, inflow, 0.02, 400 * 0.02, 1)
    assert got.cap_hits > 0


def test_unjittered_run_that_reaches_the_cap_partway_matches_the_per_step_loop():
    # with no jitter every block reruns from the same inflow rows
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(500.0, 100.0, 1.0, 0.2, shape="monotone")
    initial = initial_state(grid, 1.0, inflow)
    block = _block_steps(grid.size)
    first = _assert_same_outcome(initial, inflow, 0.02, block * 0.02, 0)
    assert first.worst_depletion < 0.5 and first.cap_hits == 0
    got = _assert_same_outcome(initial, inflow, 0.02, 400 * 0.02, 0)
    assert got.cap_hits == 5_555


def test_run_that_large_jitter_drives_to_the_cap_matches_the_per_step_loop():
    # jitter 2 scales a deposit by up to about e^4 within a block; without
    # it the same market stays slack throughout
    grid = uniform_grid(0.0, 2.0, 101)
    steady = InflowSpec(100.0, 100.0, 1.0, 0.2, shape="matched")
    inflow = InflowSpec(100.0, 100.0, 1.0, 0.2, shape="matched", jitter=2.0)
    initial = initial_state(grid, 1.0, inflow)
    block = _block_steps(grid.size)
    calm = _assert_same_outcome(initial, steady, 0.05, 400 * 0.05, 0)
    assert calm.worst_depletion < 0.5 and calm.cap_hits == 0
    first = _assert_same_outcome(initial, inflow, 0.05, block * 0.05, 0)
    assert first.worst_depletion < 0.5 and first.cap_hits == 0
    got = _assert_same_outcome(initial, inflow, 0.05, 400 * 0.05, 0)
    assert got.cap_hits == 1_294
