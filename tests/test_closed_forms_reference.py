"""Differential tests of the buffered closed-form kernels against the plain formulas.

``reference_mixture_density`` is ``laws.mixture_density`` as it was before
its integrand was evaluated in reused buffers, and ``reference_solve`` with
``reference_map`` and ``reference_cumulative`` is the fixed-point loop as it
was before its map was buffered. Both are kept verbatim apart from their
names; the seed check, which did not change, is shared. On generated inputs
the buffered kernels must return the same bits, or raise the same exception
class with the same ``achieved`` or ``last_gap`` bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dispersim import grids, laws
from dispersim.errors import ModelError, NonConvergence, QuadratureError, ZeroMass
from dispersim.fixedpoint import _seed_density, fixed_point_map, fixed_point_solve
from dispersim.grids import checked_grid, cumulative_trapezoid, uniform_grid
from dispersim.laws import LaplaceParams, LognormalParams, laplace_density, mixture_density

#: The unbuffered quadrature's block, in elements of one ``(prices, 2, m)`` temporary.
_REFERENCE_BLOCK = 1 << 20


def reference_mixture_density(
    prices,
    mean_price_law: LognormalParams,
    floor: float = 0.0,
    conditional_scale: float = 1.0,
    n_nodes: int = 4097,
    rel_tol: float = 1e-6,
) -> np.ndarray:
    if conditional_scale <= 0.0:
        raise ValueError("conditional_scale must be positive")
    if floor < 0.0:
        raise ValueError("floor must be nonnegative")
    if n_nodes < 9:
        raise ValueError("n_nodes too small for a refinement check")
    p = np.atleast_1d(np.asarray(prices, dtype=float))

    gamma, omega, shift = mean_price_law.gamma, mean_price_law.omega, mean_price_law.shift
    # Panels [-8, kink], [kink, 8] in t = (u - log gamma) / omega; a clipped kink empties one.
    kink = np.clip(np.log(np.maximum(p - floor - shift, 1e-300) / gamma) / omega, -8.0, 8.0)
    half = np.stack([8.0 + kink, 8.0 - kink], axis=1) / 2.0
    mid = np.stack([kink - 8.0, kink + 8.0], axis=1) / 2.0

    def integrate(m: int) -> np.ndarray:
        x, w = laws._legendre_rule(m)
        density = np.empty(p.size)
        rows = max(1, _REFERENCE_BLOCK // (2 * m))
        for lo in range(0, p.size, rows):
            block = slice(lo, lo + rows)
            t = mid[block, :, None] + half[block, :, None] * x
            gap = shift + gamma * np.exp(omega * t)
            scale = conditional_scale * gap
            f = np.exp(-0.5 * t**2 - np.abs(p[block, None, None] - floor - gap) / scale) / scale
            density[block] = ((f @ w) * half[block]).sum(axis=1)
        return density / (2.0 * np.sqrt(2.0 * np.pi))

    m = min(32, n_nodes // 2)
    fine = integrate(m)
    while 2 * m <= n_nodes:
        coarse, fine = fine, integrate(2 * m)
        moved = float(np.max(np.abs(fine - coarse))) / max(float(np.max(fine)), 1e-300)
        if moved <= rel_tol:
            return fine[0] if np.ndim(prices) == 0 else fine
        m *= 2
    raise QuadratureError(
        f"quadrature refinement moved the density by {moved:.3e} "
        f"(tolerance {rel_tol:.3e}); increase n_nodes", achieved=moved)


def reference_cumulative(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    steps = np.diff(grid) * (values[1:] + values[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


def reference_map(grid: np.ndarray, cum: np.ndarray) -> np.ndarray:
    p_star = float(np.interp(0.5 * cum[-1], cum, grid))
    shape = np.where(grid <= p_star, cum, cum[-1] - cum)
    norm = float(np.trapezoid(shape, grid))
    if norm <= 0.0:
        raise ZeroMass("density has no mass on the grid")
    return shape / norm


def reference_solve(grid: np.ndarray, init=None, tol: float = 1e-3, max_iter: int = 200):
    grid = checked_grid(grid)
    if grid.size < 3:
        raise ValueError("grid must have at least 3 points")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")

    density = _seed_density(grid, init)
    cum = reference_cumulative(density, grid)
    gap = np.inf
    for iteration in range(1, max_iter + 1):
        new = reference_map(grid, cum)
        new_cum = reference_cumulative(new, grid)
        gap = float(np.max(np.abs(new_cum - cum)))
        density, cum = new, new_cum
        if gap < tol:
            return density, iteration, gap
    raise NonConvergence(
        f"no fixed point within {max_iter} iterations", last_gap=float(gap)
    )


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _assert_same_mixture(prices, law, **options):
    try:
        expected = reference_mixture_density(prices, law, **options)
    except QuadratureError as exc:
        with pytest.raises(QuadratureError) as refused:
            mixture_density(prices, law, **options)
        assert _bits(refused.value.achieved) == _bits(exc.achieved)
        return
    got = mixture_density(prices, law, **options)
    assert np.shape(got) == np.shape(expected)
    assert _bits(got) == _bits(expected)


def _assert_same_solve(grid, init, tol, max_iter):
    try:
        density, iterations, gap = reference_solve(grid, init, tol, max_iter)
    except (ModelError, ValueError) as exc:
        with pytest.raises(type(exc)) as refused:
            fixed_point_solve(grid, init, tol=tol, max_iter=max_iter)
        assert type(refused.value) is type(exc)
        if isinstance(exc, NonConvergence):
            assert _bits(refused.value.last_gap) == _bits(exc.last_gap)
        return
    got = fixed_point_solve(grid, init, tol=tol, max_iter=max_iter)
    assert got.n_iterations == iterations
    assert _bits(got.gap) == _bits(gap)
    assert _bits(got.distribution.density) == _bits(density)
    assert _bits(got.distribution.grid) == _bits(grid)


_positive = st.floats(0.05, 20.0, allow_nan=False)


@st.composite
def _mixtures(draw):
    n = draw(st.one_of(st.integers(3, 40), st.integers(41, 5000)))
    lo = draw(st.floats(0.0, 2.0))
    prices = np.linspace(lo, lo + draw(st.floats(0.1, 6.0)), n)
    law = LognormalParams(
        gamma=draw(st.floats(0.1, 3.0)),
        omega=draw(st.floats(0.05, 1.5)),
        shift=draw(st.sampled_from([0.0, 0.1, 0.7])),
    )
    options = {
        "floor": draw(st.sampled_from([0.0, 0.2, 1.0])),
        "conditional_scale": draw(st.sampled_from([1.0, 0.3, 0.02, 2.5])),
        "n_nodes": draw(st.sampled_from([9, 20, 64, 130, 256])),
        "rel_tol": draw(st.sampled_from([1e-3, 1e-6, 1e-10, 1e-15])),
    }
    return prices, law, options


@settings(max_examples=60)
@given(_mixtures())
def test_buffered_mixture_matches_the_plain_integrand(case):
    prices, law, options = case
    _assert_same_mixture(prices, law, **options)


def test_buffered_mixture_matches_at_a_scalar_price_and_the_bench_grid():
    law = LognormalParams(gamma=1.0, omega=0.3)
    _assert_same_mixture(1.3, law)
    _assert_same_mixture(np.linspace(0.2, 3.0, 4001), law)
    _assert_same_mixture(np.linspace(0.5, 2.0, 31), LognormalParams(gamma=1.0, omega=0.245),
                         conditional_scale=0.005, n_nodes=65537, rel_tol=1e-3)


def test_mixture_rules_spanning_several_blocks_with_a_short_last_one(monkeypatch):
    law = LognormalParams(gamma=1.0, omega=0.3)
    prices = np.linspace(0.2, 3.0, 401)
    # 14 prices a block at 32 nodes and 7 at 64: 401 leaves a last block of
    # 9 and of 2 prices
    monkeypatch.setattr(grids, "SCRATCH_BYTES", 3 * 8 * 2 * 64 * 7)
    assert 401 % 14 == 9 and 401 % 7 == 2
    _assert_same_mixture(prices, law, rel_tol=1e-10)
    _assert_same_mixture(prices, law, n_nodes=130, rel_tol=1e-15)


@st.composite
def _solves(draw):
    n = draw(st.one_of(st.integers(3, 12), st.integers(13, 5000)))
    lo = draw(st.floats(-1.0, 1.0))
    grid = uniform_grid(lo, lo + draw(st.floats(0.5, 4.0)), n)
    init = None
    if draw(st.booleans()):
        span = float(grid[-1] - grid[0])
        mu = float(grid[0]) + draw(st.floats(-0.2, 1.2)) * span
        init = laplace_density(grid, LaplaceParams(
            mu=max(mu, 0.0), sigma=draw(st.floats(0.01, 1.0)) * span))
    tol = draw(st.sampled_from([0.1, 1e-2, 5e-3, 1e-3, 1e-9]))
    max_iter = draw(st.sampled_from([0, 1, 2, 17, 40]))
    return grid, init, tol, max_iter


@settings(max_examples=80)
@given(_solves())
def test_buffered_solve_matches_the_plain_loop(case):
    _assert_same_solve(*case)


@settings(max_examples=40)
@given(_solves())
def test_map_and_running_integral_match_the_plain_formulas(case):
    grid, init, _, _ = case
    density = np.full(grid.shape, 0.5) if init is None else init
    assert _bits(cumulative_trapezoid(density, grid)) == _bits(
        reference_cumulative(density, grid))
    try:
        expected = reference_map(grid, reference_cumulative(density, grid))
    except ZeroMass:
        with pytest.raises(ZeroMass):
            fixed_point_map(grid, density)
        return
    assert _bits(fixed_point_map(grid, density)) == _bits(expected)


@pytest.mark.parametrize("tol", [1e-2, 1e-3])
def test_buffered_solve_matches_at_the_bench_shape(tol):
    # 1e-3 is the CLI default: 200 iterations that end in NonConvergence
    _assert_same_solve(uniform_grid(0.0, 2.0, 4001), None, tol, 200)
