"""Gridded probability distributions on a shared uniform price axis.

All continuum quantities in the model (sales dispersion, demand/supply
dispersions) are represented on a uniform price grid and integrated with the
trapezoidal rule, in numpy alone. A :class:`GriddedDistribution` holds the
grid and the density values, checks the normalization invariants on
construction, and derives its cumulative from the density on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError, ZeroMass

__all__ = ["GriddedDistribution", "uniform_grid"]

#: Tolerance on normalization and monotonicity of gridded distributions.
NORMALIZATION_TOL = 1e-9

#: Most bytes that a run's per-step arrays may take, checked before they exist.
STEP_BUDGET = 1 << 30


def step_count(dt: float, horizon: float, step_bytes: int = 0) -> int:
    """Whole steps of ``dt`` in ``horizon``: ``round(horizon / dt)``, at least 1.

    ``dt`` must be positive and ``horizon`` finite and at least ``dt``, which
    makes the quotient at least 1. A caller that holds ``step_bytes`` per
    step asks for the count before it allocates, and the count is refused
    when those bytes would pass :data:`STEP_BUDGET`, or when the quotient
    overflows the float range. Each refusal is a ``ValueError`` that names
    ``dt``.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not dt <= horizon < math.inf:
        raise ValueError("horizon must be finite and at least dt")
    steps = float(horizon) / float(dt)
    if steps == math.inf:
        raise ValueError(f"dt = {dt!r} is too small: horizon / dt overflows")
    if steps * step_bytes > STEP_BUDGET:
        raise ValueError(f"dt = {dt!r} makes {steps:.3g} steps of {step_bytes} bytes, "
                         f"past the {STEP_BUDGET}-byte budget of per-step arrays")
    return round(steps)


def uniform_grid(p_min: float, p_max: float, n_points: int) -> np.ndarray:
    """Uniform price grid with ``n_points`` nodes from ``p_min`` to ``p_max``."""
    if not p_max > p_min:
        raise ValueError(f"need p_max > p_min, got [{p_min}, {p_max}]")
    if not float(p_max) - float(p_min) < math.inf:
        raise ValueError(f"grid range [{p_min}, {p_max}] must have finite ends and span")
    if n_points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(p_min, p_max, n_points)


def trapezoid(values: np.ndarray, grid: np.ndarray) -> float:
    """Trapezoidal integral of ``values`` over ``grid``."""
    return float(np.trapezoid(values, grid))


def trapezoid_areas(values: np.ndarray, steps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-interval trapezoid areas ``steps * (values[1:] + values[:-1]) / 2.0``, into ``out``.

    These are the terms ``np.trapezoid`` forms, in its order of operations,
    so ``np.add.reduce`` of them is its integral bit for bit. The halving is
    a multiply by 0.5, which is cheaper than a divide by 2.0. Both have the
    same exact result, the real number ``x / 2``, and IEEE arithmetic rounds
    that one result to the same float for every ``x``: subnormals (where
    halving rounds), infinities and NaN included.
    """
    np.add(values[1:], values[:-1], out=out)
    np.multiply(steps, out, out=out)
    return np.multiply(out, 0.5, out=out)


def running_trapezoid(values: np.ndarray, steps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral of ``values``, from 0, into ``out``.

    ``steps`` are the grid's steps. The areas are formed in ``out[1:]`` and
    summed there in place, so a caller that keeps ``steps`` and ``out``
    across calls, as the fixed-point loop does, allocates no array.
    """
    np.cumsum(trapezoid_areas(values, steps, out[1:]), out=out[1:])
    out[0] = 0.0
    return out


def cumulative_trapezoid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral of ``values`` over ``grid``, starting at 0.

    Bit for bit what ``scipy.integrate.cumulative_trapezoid(values, grid,
    initial=0.0)`` returns, without importing scipy. It is one call of
    :func:`running_trapezoid`, the running integral that the fixed-point
    loop also runs on its own steps and buffers.
    """
    values = np.asarray(values, dtype=float)
    return running_trapezoid(values, np.diff(grid), np.empty(values.shape))


def checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array; ``ValueError`` unless 1-D and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be 1-D, strictly increasing, with at least 2 points")
    return grid


@dataclass(frozen=True, eq=False)
class GriddedDistribution:
    """A probability density on a strictly increasing grid.

    Invariants (checked on construction):
      * grid strictly increasing,
      * density finite and nonnegative with trapezoidal integral 1 within 1e-9.

    The cumulative is derived from the density on first use. Instances are
    treated as immutable values; do not mutate the arrays.
    """

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        grid = checked_grid(self.grid)
        density = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)
        if density.shape != grid.shape:
            raise ValueError("density must match the grid shape")
        if not np.all(np.isfinite(density)):
            raise ValueError("density must be finite")
        if np.any(density < -NORMALIZATION_TOL):
            raise ValueError("density has negative values")
        total = trapezoid(density, grid)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density integrates to {total!r}, expected 1")

    @classmethod
    def from_density(cls, grid, density) -> "GriddedDistribution":
        """Normalize raw density values to unit trapezoidal mass.

        The grid is checked first, with the constructor's ``ValueError``. A
        density whose plain total underflows to 0 or overflows is divided
        by its largest value first. Raises :class:`~dispersim.errors.ModelError`
        if a value or the total is not finite, and its subclass
        :class:`~dispersim.errors.ZeroMass` if the clipped density
        integrates to zero.
        """
        grid = checked_grid(grid)
        density = np.asarray(density, dtype=float)
        if density.shape != grid.shape:
            raise ValueError("density must match the grid shape")
        if not np.all(np.isfinite(density)):
            raise ModelError("density has non-finite values")
        density = np.clip(density, 0.0, None)
        with np.errstate(over="ignore"):  # a total that overflows is refused below
            total = trapezoid(density, grid)
            if not 0.0 < total < np.inf and np.max(density) > 0.0:
                # Rescale only a total that underflows or overflows, so every
                # other input keeps its exact output.
                density = density / np.max(density)
                total = trapezoid(density, grid)
        if not np.isfinite(total):
            raise ModelError(f"density total {total!r} is not finite")
        if total <= 0.0:
            raise ZeroMass("density has zero total mass")
        return cls(grid, density / total)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Trapezoidal cumulative of the density, from 0 to exactly 1."""
        cumulative = cumulative_trapezoid(self.density, self.grid)
        # Guard against roundoff pushing the last node off 1.
        return np.clip(cumulative / cumulative[-1], 0.0, 1.0)

    def quantile(self, q: float) -> float:
        """Price at cumulative level ``q`` by linear interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile level must be in [0, 1]")
        x = float(np.interp(q, self.cumulative, self.grid))
        if x == np.inf:
            # interp's slope overflows on a segment holding subnormal mass;
            # q lies strictly inside it, so take its fraction of the segment
            c, g = self.cumulative, self.grid
            j = int(np.searchsorted(c, q))
            t = (q - c[j - 1]) / (c[j] - c[j - 1])
            x = float(g[j - 1] + t * (g[j] - g[j - 1]))
        return x

    def median(self) -> float:
        return self.quantile(0.5)

