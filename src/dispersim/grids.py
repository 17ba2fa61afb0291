"""Gridded probability distributions on a shared uniform price axis.

All continuum quantities in the model (sales dispersion, demand/supply
dispersions) are represented on a uniform price grid and integrated with the
trapezoidal rule, in numpy alone. A :class:`GriddedDistribution` bundles the
grid, the density values, and the cumulative values, and enforces the
normalization invariants on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, ZeroMass

#: Tolerance on normalization and monotonicity of gridded distributions.
NORMALIZATION_TOL = 1e-9


def uniform_grid(p_min: float, p_max: float, n_points: int) -> np.ndarray:
    """Uniform price grid with ``n_points`` nodes from ``p_min`` to ``p_max``."""
    if not p_max > p_min:
        raise ValueError(f"need p_max > p_min, got [{p_min}, {p_max}]")
    if n_points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(p_min, p_max, n_points)


def trapezoid(values: np.ndarray, grid: np.ndarray) -> float:
    """Trapezoidal integral of ``values`` over ``grid``."""
    return float(np.trapezoid(values, grid))


def cumulative_trapezoid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral of ``values`` over ``grid``, starting at 0.

    Bit for bit what ``scipy.integrate.cumulative_trapezoid(values, grid,
    initial=0.0)`` returns, without importing scipy.
    """
    values = np.asarray(values, dtype=float)
    steps = np.diff(grid) * (values[1:] + values[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


@dataclass(frozen=True)
class GriddedDistribution:
    """A probability density and its cumulative on a strictly increasing grid.

    Invariants (checked on construction):
      * grid strictly increasing,
      * density and cumulative finite,
      * density nonnegative with trapezoidal integral 1 within 1e-9,
      * cumulative nondecreasing from 0 to 1 within 1e-9.

    Instances are treated as immutable values; do not mutate the arrays.
    """

    grid: np.ndarray
    density: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        density = np.asarray(self.density, dtype=float)
        cumulative = np.asarray(self.cumulative, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "cumulative", cumulative)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-D with at least 2 points")
        if density.shape != grid.shape or cumulative.shape != grid.shape:
            raise ValueError("density and cumulative must match the grid shape")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not (np.all(np.isfinite(density)) and np.all(np.isfinite(cumulative))):
            raise ValueError("density and cumulative must be finite")
        if np.any(density < -NORMALIZATION_TOL):
            raise ValueError("density has negative values")
        total = trapezoid(density, grid)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density integrates to {total!r}, expected 1")
        if np.any(np.diff(cumulative) < -NORMALIZATION_TOL):
            raise ValueError("cumulative must be nondecreasing")
        if abs(cumulative[0]) > NORMALIZATION_TOL or abs(cumulative[-1] - 1.0) > NORMALIZATION_TOL:
            raise ValueError("cumulative must run from 0 to 1")

    @classmethod
    def from_density(cls, grid, density) -> "GriddedDistribution":
        """Normalize raw density values and attach the trapezoidal cumulative.

        A density whose plain total underflows to 0 or overflows is divided
        by its largest value first. Raises :class:`~dispersim.errors.ModelError`
        if a value or the total is not finite, and its subclass
        :class:`~dispersim.errors.ZeroMass` if the clipped density
        integrates to zero.
        """
        grid = np.asarray(grid, dtype=float)
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
        density = density / total
        cumulative = cumulative_trapezoid(density, grid)
        # Guard against roundoff pushing the last node off 1.
        cumulative = np.clip(cumulative / cumulative[-1], 0.0, 1.0)
        return cls(grid=grid, density=density, cumulative=cumulative)

    @property
    def spacing(self) -> float:
        """Grid spacing (assumes a uniform grid)."""
        return float(self.grid[1] - self.grid[0])

    def mean(self) -> float:
        """Trapezoidal mean price under the density."""
        return trapezoid(self.grid * self.density, self.grid)

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

    def cdf_at(self, prices) -> np.ndarray:
        """Cumulative values at arbitrary prices by linear interpolation."""
        return np.interp(prices, self.grid, self.cumulative, left=0.0, right=1.0)
