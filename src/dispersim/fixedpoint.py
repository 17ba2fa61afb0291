"""Self-consistent sales-price law via fixed-point iteration.

The map sends a density to its own cumulative below the median and to the
complementary cumulative above it, rescaled to unit mass.  Every two-sided
exponential law reproduces itself under this map up to boundary
truncation, whatever its scale, so the scale is a neutral direction and the
map has no attracting fixed point.  On a grid the iterates keep narrowing:
from a flat seed on 4001 nodes the fitted Laplace scale falls from 0.083 to
0.0015 over 400 iterations.

One buffered kernel applies the map for both :func:`fixed_point_map` and
:func:`fixed_point_solve`: it takes the grid's steps once and writes the
median mask, the trapezoid areas and the image into arrays allocated once,
so an iteration of the solver allocates no grid-length array. Each array
operation is the one the plain formulas make, in their order, so every
iterate has the bits of ``np.where``, ``np.trapezoid`` and
:func:`~dispersim.grids.cumulative_trapezoid`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NonConvergence, ZeroMass
from .grids import (
    GriddedDistribution, checked_grid, checked_value, on_grid, running_trapezoid, trapezoid_areas,
)

__all__ = ["FixedPointResult", "fixed_point_solve"]


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """Outcome of :func:`fixed_point_solve`."""

    distribution: GriddedDistribution
    n_iterations: int
    gap: float


def fixed_point_map(grid: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Apply one step of the self-consistency map.

    The input's cumulative is used as computed, without renormalising: the
    median is where it reaches half its final value ``cum[-1]``, and the
    complementary branch is ``cum[-1] - cum``, so a seed of any mass (a
    truncated or scaled closed form evaluated on the grid) maps as its
    normalised law would. The output integrates to one (trapezoid rule) by
    construction; a density with no mass to map raises
    :class:`~dispersim.errors.ZeroMass`, and one whose running integral or
    whose image's mass overflows raises :class:`~dispersim.errors.ModelError`.
    """
    grid = checked_grid(grid)
    (density,) = on_grid(grid, density)
    step = _Map(grid)
    # as in fixed_point_solve, an integral or a mass that overflows is refused, not warned about
    with np.errstate(over="ignore"):
        cum = _finite_integral(density, step.steps, np.empty(grid.shape), 0)
        return step(cum, np.empty(grid.shape))


class _Map:
    """The map on one grid, with its steps and scratch taken once.

    A call writes the image of a density, given by its running integral
    ``cum``, into ``out`` and allocates no grid-length array.
    """

    def __init__(self, grid: np.ndarray):
        self.grid = grid
        self.steps = np.diff(grid)
        self.areas = np.empty(grid.size - 1)
        self.below = np.empty(grid.shape, dtype=bool)

    def __call__(self, cum: np.ndarray, out: np.ndarray) -> np.ndarray:
        p_star = float(np.interp(0.5 * cum[-1], cum, self.grid))
        # cum up to the median, cum[-1] - cum above it
        np.subtract(cum[-1], cum, out=out)
        np.less_equal(self.grid, p_star, out=self.below)
        np.copyto(out, cum, where=self.below)
        norm = float(np.add.reduce(trapezoid_areas(out, self.steps, self.areas)))
        if norm <= 0.0:
            raise ZeroMass("density has no mass on the grid")
        if norm == np.inf:
            raise ModelError("the image's mass overflows on this grid")
        return np.divide(out, norm, out=out)


def _seed_density(grid: np.ndarray, init) -> np.ndarray:
    if init is None:
        span = float(grid[-1] - grid[0])
        return np.full(grid.shape, 1.0 / span)
    density = checked_value("init", *on_grid(grid, init), 0.0)
    if not np.any(density > 0.0):
        raise ValueError("init density is identically zero")
    return density


def _finite_integral(density, steps, out, iterations: int) -> np.ndarray:
    """The running integral of ``density`` into ``out``; ``ModelError`` if it overflows.

    The integral of a nonnegative density is largest at its end.
    """
    running_trapezoid(density, steps, out)
    if out[-1] == np.inf:
        raise ModelError(f"the density overflows after {iterations} iterations")
    return out


def fixed_point_solve(
    grid: np.ndarray,
    init=None,
    tol: float = 1e-3,
    max_iter: int = 200,
) -> FixedPointResult:
    """Iterate the map until successive iterates agree within ``tol``.

    ``init`` is a density array on ``grid`` (a :class:`GriddedDistribution`
    seed passes its ``density``), or ``None`` for a uniform start.  Seed
    densities are used as given; they are not renormalised.

    The stopping gap is the sup-norm distance between successive
    cumulatives, the Kolmogorov-Smirnov distance between successive
    iterates.  Iterates sharpen without bound in density, so a density-space
    gap never settles.  The cumulative gap does not contract either: the
    map leaves the scale of a two-sided exponential free, the iterates keep
    narrowing, and the gap can dip below a loose ``tol`` in passing while
    a tight one (1e-3 at 4001 nodes) is never met.  The returned law is the
    first iterate whose gap falls below ``tol``, so it depends on ``tol``.

    The loop runs on the module's buffered map: the grid's steps are taken
    once a solve, and each iteration writes the iterate, its running
    integral and the gap into arrays allocated before the loop, with the
    bits of the unbuffered formulas.

    Raises
    ------
    ModelError
        If the running integral of the seed or of an iterate overflows, as
        on a grid whose span is near the grid rule's least, or the mass of
        an image does, as from a heavy seed on a wide grid.
    NonConvergence
        If ``max_iter`` iterations pass without the gap falling below
        ``tol``; ``last_gap`` carries the final gap, and the message quotes
        it beside ``tol``.
    """
    grid = checked_grid(grid)
    if grid.size < 3:
        raise ValueError("grid must have at least 3 points")
    checked_value("tol", tol, 0.0, strict=True)
    max_iter = checked_value("max_iter", max_iter, 0, count=True)

    step = _Map(grid)
    density, new_cum = np.empty(grid.shape), np.empty(grid.shape)
    gap = np.inf
    # an integral or a mass that overflows is refused, here or in the map, not warned about
    with np.errstate(over="ignore"):
        cum = _finite_integral(_seed_density(grid, init), step.steps, np.empty(grid.shape), 0)
        for iteration in range(1, max_iter + 1):
            step(cum, density)
            _finite_integral(density, step.steps, new_cum, iteration)
            # the old cumulative is spent: the gap is taken in its place
            np.subtract(new_cum, cum, out=cum)
            gap = float(np.abs(cum, out=cum).max())
            cum, new_cum = new_cum, cum
            if gap < tol:
                dist = GriddedDistribution(grid.copy(), density)
                return FixedPointResult(distribution=dist, n_iterations=iteration, gap=gap)
    raise NonConvergence(
        f"no fixed point within {max_iter} iterations: last gap {gap!r} is not below "
        f"tol {tol!r}", last_gap=gap)
