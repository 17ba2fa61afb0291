"""Estimators for the closed-form price laws and goodness-of-fit tooling.

All estimators accept weighted samples; weights enter every sum exactly as
multiplicities would, so integer weights reproduce the unweighted estimate
on the expanded sample. Each fit returns a :class:`FitResult` carrying the
family name, the estimates, the attained log-likelihood, and the weighted
Kolmogorov-Smirnov distance against the fitted law itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, EmptyFeasibleShift
from .grids import GriddedDistribution
from .laws import (
    LaplaceParams,
    LognormalParams,
    laplace_cdf,
    lognormal_cdf,
)
from .samples import Sample

FAMILY_LAPLACE = "laplace"
FAMILY_SHIFTED_LOGNORMAL = "shifted-lognormal"


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit.

    ``n`` is the number of observations (not the total weight) and
    ``log_likelihood`` is the weighted log-likelihood at the optimum.
    """

    family: str
    params: LaplaceParams | LognormalParams
    log_likelihood: float
    ks_distance: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError("KS distance must lie in [0, 1]")
        if self.n < 1:
            raise ValueError("n must be positive")

    def to_record(self) -> dict[str, str]:
        """Flat key-value form for serialization."""
        record = {"family": self.family}
        if isinstance(self.params, LaplaceParams):
            record["mu"] = repr(self.params.mu)
            record["sigma"] = repr(self.params.sigma)
            record["mu_m"] = repr(self.params.mu_m)
        else:
            record["gamma"] = repr(self.params.gamma)
            record["omega"] = repr(self.params.omega)
            record["shift"] = repr(self.params.shift)
        record["loglik"] = repr(self.log_likelihood)
        record["ks"] = repr(self.ks_distance)
        record["n"] = str(self.n)
        return record


def fit_laplace(sample: Sample) -> FitResult:
    """Maximum-likelihood two-sided exponential fit.

    The location is the weighted lower median (the smallest value whose
    cumulative weight reaches half the total; the lower of the two middle
    values in an even unweighted sample) and the scale is the weighted mean
    absolute deviation about it.

    Raises
    ------
    DegenerateSample
        If fewer than two observations are given or the deviations all
        vanish, so no positive scale exists.
    """
    if sample.size < 2:
        raise DegenerateSample("need at least two observations for a scale")
    s = sample.sorted()
    total = s.total_weight
    cum = np.cumsum(s.weights)
    mu = float(s.values[np.searchsorted(cum, 0.5 * total)])
    sigma = float(np.sum(s.weights * np.abs(s.values - mu)) / total)
    if sigma <= 0.0:
        raise DegenerateSample("all observations coincide; scale is zero")
    params = LaplaceParams(mu=mu, sigma=sigma, mu_m=0.0)
    loglik = -total * (np.log(2.0 * sigma) + 1.0)
    ks = ks_statistic(s, lambda x: laplace_cdf(x, params))
    return FitResult(
        family=FAMILY_LAPLACE,
        params=params,
        log_likelihood=float(loglik),
        ks_distance=ks,
        n=sample.size,
    )


def _log_moments(shift: float, values, weights, total) -> tuple[float, float]:
    """Weighted mean and variance of ``log(values - shift)``."""
    y = np.log(values - shift)
    mean = float(np.sum(weights * y) / total)
    var = float(np.sum(weights * (y - mean) ** 2) / total)
    return mean, var


def fit_shifted_lognormal(
    sample: Sample,
    shift_bounds: tuple[float, float] | None = None,
    grid_points: int = 64,
    rel_tol: float = 1e-6,
) -> FitResult:
    """Maximum-likelihood shifted lognormal fit with a profiled shift.

    For a fixed shift the location and log-scale estimates are the weighted
    mean and standard deviation of the shifted logs, in closed form; the
    concentrated likelihood is then maximized over the shift with a coarse
    grid of ``grid_points`` candidates refined by a bounded scalar search
    narrowed to ``rel_tol`` of the bounds width. Passing equal bounds pins
    the shift and skips the search.

    The likelihood is unbounded as the shift approaches the smallest
    observation, so the search is always bracketed strictly below it;
    ``shift_bounds`` defaults to ``(0, 0.99 * min(values))`` and any upper
    bound is clamped below the smallest value.

    Raises
    ------
    EmptyFeasibleShift
        If no candidate shift leaves every observation above it.
    DegenerateSample
        If fewer than three observations are given or the shifted logs
        carry no spread at the optimum.
    """
    if sample.size < 3:
        raise DegenerateSample("need at least three observations for three parameters")
    s = sample.sorted()
    values, weights, total = s.values, s.weights, s.total_weight
    min_x = float(values[0])
    tiny = 1e-12 * max(1.0, abs(min_x))
    if shift_bounds is None:
        if min_x <= 0.0:
            raise EmptyFeasibleShift(
                "smallest observation is not positive; pass explicit shift bounds"
            )
        lo, hi = 0.0, 0.99 * min_x
    else:
        lo, hi = float(shift_bounds[0]), float(shift_bounds[1])
        hi = min(hi, min_x - tiny)
    if lo > hi:
        raise EmptyFeasibleShift(
            f"no shift in [{lo}, {hi}] leaves every observation positive"
        )

    def negative_profile(shift: float) -> float:
        mean, var = _log_moments(shift, values, weights, total)
        if var <= 0.0:
            return np.inf
        # Up to constants: -(profile log-likelihood) / total weight.
        return 0.5 * np.log(var) + mean

    if lo == hi:
        shift = lo
    else:
        # Imported here, not at the top: loading scipy would make importing
        # the package, and so every command, several times slower.
        from scipy.optimize import minimize_scalar

        grid = np.linspace(lo, hi, grid_points)
        objective = np.array([negative_profile(g) for g in grid])
        best = int(np.argmin(objective))
        result = minimize_scalar(
            negative_profile,
            bounds=(grid[max(best - 1, 0)], grid[min(best + 1, grid_points - 1)]),
            method="bounded",
            options={"xatol": rel_tol * (hi - lo)},
        )
        shift = float(result.x) if result.fun <= objective[best] else float(grid[best])
    mean, var = _log_moments(shift, values, weights, total)
    if var <= 0.0:
        raise DegenerateSample("shifted logs carry no spread")
    params = LognormalParams(
        gamma=float(np.exp(mean)), omega=float(np.sqrt(var)), shift=shift
    )
    loglik = -total * (
        0.5 * np.log(2.0 * np.pi * var) + 0.5 + mean
    )
    ks = ks_statistic(s, lambda x: lognormal_cdf(x, params))
    return FitResult(
        family=FAMILY_SHIFTED_LOGNORMAL,
        params=params,
        log_likelihood=float(loglik),
        ks_distance=ks,
        n=sample.size,
    )


def ks_statistic(sample: Sample, cdf) -> float:
    """Weighted Kolmogorov-Smirnov distance to a model cumulative.

    ``cdf`` is any callable mapping an array of values to cumulative
    probabilities. The empirical cumulative steps by weight fractions and
    the distance takes the larger deviation on either side of each step,
    which for unit weights is the classical
    ``max(|i/n - F(x_i)|, |(i-1)/n - F(x_i)|)``.
    """
    if sample.size == 0:
        raise DegenerateSample("cannot compare an empty sample to a law")
    s = sample.sorted()
    fractions = np.cumsum(s.weights) / s.total_weight
    model = np.asarray(cdf(s.values), dtype=float)
    below = np.concatenate(([0.0], fractions[:-1]))
    return float(
        np.max(np.maximum(np.abs(fractions - model), np.abs(below - model)))
    )


def histogram(sample: Sample, grid) -> tuple[GriddedDistribution, float]:
    """Bin a sample to the nearest centers of a uniform grid.

    Returns the normalized binned law together with the weight fraction
    that fell outside the grid and was dropped.

    Raises
    ------
    DegenerateSample
        If the sample is empty or every observation falls outside the grid.
    """
    if sample.size == 0:
        raise DegenerateSample("cannot bin an empty sample")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be 1-D with at least 2 centers")
    spacing = np.diff(grid)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("histogram grid must be uniform")
    h = float(spacing[0])
    index = np.rint((sample.values - grid[0]) / h).astype(int)
    inside = (index >= 0) & (index < grid.size)
    kept = float(sample.weights[inside].sum())
    if kept <= 0.0:
        raise DegenerateSample("every observation falls outside the grid")
    counts = np.zeros(grid.size)
    np.add.at(counts, index[inside], sample.weights[inside])
    return GriddedDistribution.from_density(grid, counts), 1.0 - kept / sample.total_weight
