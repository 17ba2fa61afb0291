"""Quasi-static sales dispersion from demand and supply order books.

When waiting stocks of buy and sell orders relax much faster than their
cumulative distributions drift, the density of transacted prices is set by
the overlap of the two books: a sale at price p needs a sell offer at or
below p and a buy order at or above p. The resulting sales density is

    P_y(p) = F_z(p) * (1 - F_x(p)) / sigma

where F_x and F_z are the demand-side and supply-side cumulatives and sigma,
the integral of the numerator, doubles as the dispersion scale of the
stationary law. The crossing of the outstanding-demand and outstanding-supply
curves marks the center of the dispersion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoIntercept, ZeroSalesVolume
from .grids import GriddedDistribution, checked_grid, trapezoid

__all__ = ["SupplyDemandCurves", "intercept_price", "quasi_static_density", "total_sales_rate"]

#: Overlap integrals below this are treated as no market at all.
OVERLAP_FLOOR = 1e-12


def _checked_cumulative(cum, grid: np.ndarray) -> np.ndarray:
    """``cum`` as a float array; ``ValueError`` unless a cumulative on ``grid``."""
    cum = np.asarray(cum, dtype=float)
    if cum.shape != grid.shape:
        raise ValueError("cumulative must match the grid shape")
    if not np.all(np.isfinite(cum)):
        raise ValueError("cumulative must be finite")
    if np.any(np.diff(cum) < -1e-12) or np.any(cum < -1e-12) or np.any(cum > 1 + 1e-12):
        raise ValueError("cumulative must be nondecreasing within [0, 1]")
    return cum


def quasi_static_density(
    supply_cumulative, demand_cumulative, grid
) -> tuple[GriddedDistribution, float]:
    """Sales price law and dispersion scale from the two order books.

    ``supply_cumulative`` (F_z) and ``demand_cumulative`` (F_x) are raw
    cumulative arrays on ``grid``; a :class:`GriddedDistribution` book
    passes its ``cumulative``. Degenerate books, such as an
    everywhere-saturated cumulative, are admitted.

    Returns the normalized sales law together with ``sigma_norm``, the
    trapezoidal integral of ``F_z * (1 - F_x)``.

    Raises
    ------
    ZeroSalesVolume
        If the overlap integral falls below 1e-12, meaning no price has
        both willing buyers and willing sellers.
    """
    grid = checked_grid(grid)
    cum_z = _checked_cumulative(supply_cumulative, grid)
    cum_x = _checked_cumulative(demand_cumulative, grid)
    overlap = cum_z * (1.0 - cum_x)
    sigma_norm = trapezoid(overlap, grid)
    if sigma_norm < OVERLAP_FLOOR:
        raise ZeroSalesVolume(
            f"overlap integral {sigma_norm:.3e} is below {OVERLAP_FLOOR:.0e}; "
            "demand and supply do not coexist at any price"
        )
    dist = GriddedDistribution.from_density(grid, overlap)
    return dist, sigma_norm


def total_sales_rate(eta: float, x_total: float, z_total: float, sigma_norm: float) -> float:
    """Aggregate transaction rate ``eta * x_total * z_total * sigma_norm``."""
    for name, value in (("eta", eta), ("x_total", x_total),
                        ("z_total", z_total), ("sigma_norm", sigma_norm)):
        if value < 0.0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return eta * x_total * z_total * sigma_norm


@dataclass(frozen=True, eq=False)
class SupplyDemandCurves:
    """Outstanding demand and supply as functions of price.

    ``x_units`` counts demanded units still willing to buy at each price or
    above, so it never increases; its first value is the demand total.
    ``z_units`` counts supplied units offered at each price or below, so it
    never decreases; its last value is the supply total.
    """

    grid: np.ndarray
    x_units: np.ndarray
    z_units: np.ndarray

    def __post_init__(self):
        grid = checked_grid(self.grid)
        x_units = np.asarray(self.x_units, dtype=float)
        z_units = np.asarray(self.z_units, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "x_units", x_units)
        object.__setattr__(self, "z_units", z_units)
        if x_units.shape != grid.shape or z_units.shape != grid.shape:
            raise ValueError("curves must match the grid shape")
        if not all(np.all((0.0 <= u) & (u < np.inf)) for u in (x_units, z_units)):
            raise ValueError("curve values must be nonnegative and finite")
        slack = 1e-9 * max(x_units[0], z_units[-1], 1.0)
        if np.any(np.diff(x_units) > slack):
            raise ValueError("x_units must be nonincreasing in price")
        if np.any(np.diff(z_units) < -slack):
            raise ValueError("z_units must be nondecreasing in price")

    @classmethod
    def from_books(
        cls, grid, demand_cumulative, supply_cumulative,
        x_total: float = 1.0, z_total: float = 1.0,
    ) -> "SupplyDemandCurves":
        """Curves ``x_total * (1 - F_x)`` and ``z_total * F_z`` on one grid."""
        f_x = np.asarray(demand_cumulative, dtype=float)
        f_z = np.asarray(supply_cumulative, dtype=float)
        return cls(grid=grid, x_units=x_total * (1.0 - f_x), z_units=z_total * f_z)

    @classmethod
    def from_bin_stocks(cls, grid, x_bins, z_bins) -> "SupplyDemandCurves":
        """Curves from per-bin waiting stocks.

        A buy order waiting in bin i is counted as outstanding at every
        price up to and including its bin, a sell offer at every price from
        its bin on, so the curves are the tail and head partial sums of the
        bins.
        """
        x_bins = np.asarray(x_bins, dtype=float)
        x_units = float(x_bins.sum()) - np.concatenate(([0.0], np.cumsum(x_bins)[:-1]))
        return cls(grid=grid, x_units=x_units, z_units=np.cumsum(z_bins, dtype=float))


def intercept_price(curves: SupplyDemandCurves) -> float:
    """Price where outstanding demand equals outstanding supply.

    The demand curve never increases and the supply curve never decreases,
    so the crossing is unique up to flat stretches; the first sign change
    of their difference is located by linear interpolation between the
    bracketing grid points.

    Raises
    ------
    NoIntercept
        If the difference never changes sign on the grid.
    """
    gap = curves.x_units - curves.z_units
    if gap[0] < 0.0:
        raise NoIntercept("outstanding supply exceeds demand on the whole grid")
    if gap[0] == 0.0:
        return float(curves.grid[0])
    crossing = np.nonzero(gap <= 0.0)[0]
    if crossing.size == 0:
        raise NoIntercept("outstanding demand exceeds supply on the whole grid")
    j = int(crossing[0])
    p_lo, p_hi = curves.grid[j - 1], curves.grid[j]
    # gap[0] > 0 and j is the first index with gap <= 0, so gap[j - 1] > 0 >= gap[j].
    # The crossing's fraction gap[j - 1] / (gap[j - 1] - gap[j]) of the cell
    # is formed from the gaps' ratio, in Python floats: neither their
    # difference nor a product with the cell width is built, and a ratio
    # that overflows gives inf and the fraction's limit 0, without a warning.
    t = 1.0 / (1.0 - float(gap[j]) / float(gap[j - 1]))
    return float(p_lo + t * (p_hi - p_lo))
