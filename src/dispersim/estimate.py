"""Estimators for the closed-form price laws and goodness-of-fit tooling.

All estimators accept weighted samples; weights enter every sum exactly as
multiplicities would, so integer weights reproduce the unweighted estimate
on the expanded sample. The sums are taken on the weights scaled by one
power of two, so that weights near the top of the float range cannot
overflow them. Each fit returns a :class:`FitResult` carrying the family
name, the estimates, the attained log-likelihood, and the weighted
Kolmogorov-Smirnov distance against the fitted law itself. Everything here
is numpy: the shifted lognormal shift is found by one grid scan and a
bisection on the closed-form slope of the profile likelihood.

Full-length temporaries are few. The Laplace fit takes its deviations in
one buffer with ``out=`` ufuncs. The KS distance turns the fit's cumulative
weights into fractions in place, and evaluates the model cumulative and the
largest gap in blocks of values that the scratch rule
:func:`~dispersim.grids.block_rows` sizes. Element-wise ufuncs give the
same bits in any block, the maximum is exact, and every full-length
``np.sum`` and ``np.cumsum`` is taken as before, so blocks change no result.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateSample, EmptyFeasibleShift
from .grids import GriddedDistribution, block_rows, checked_grid, checked_value
from .laws import (
    LaplaceParams,
    LognormalParams,
    laplace_cdf,
    lognormal_cdf,
)
from .samples import Sample, unit_scaled

__all__ = ["FitResult", "fit_laplace", "fit_shifted_lognormal", "histogram", "ks_statistic"]

FAMILY_LAPLACE = "laplace"
FAMILY_SHIFTED_LOGNORMAL = "shifted-lognormal"

#: The shift search scans this many evenly spaced shifts over the bounds,
#: then bisects the two cells around the best one on the sign of the
#: profile's slope until the bracket spans ``_RESOLUTION`` of the bounds width.
_SCAN_NODES = 65
_RESOLUTION = 2.0**-40


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
            raise ValueError(f"ks_distance must lie in [0, 1], got {self.ks_distance!r}")
        checked_value("n", self.n, 1, count=True)

    def to_record(self) -> dict[str, str]:
        """Flat key-value form for serialization."""
        record = {"family": self.family}
        for field in fields(self.params):
            record[field.name] = repr(getattr(self.params, field.name))
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
        If fewer than two observations are given, the deviations all
        vanish, so no positive scale exists, their weighted mean overflows
        or falls below the smallest normal float (which ``LaplaceParams``
        requires of a scale), or the weighted median lies below the price
        floor of zero that the fitted law carries.
    """
    if sample.size < 2:
        raise DegenerateSample("need at least two observations for a scale")
    values, weights, exponent = _sorted_scaled(sample)
    total = float(weights.sum())
    cum = np.cumsum(weights)
    mu = float(values[np.searchsorted(cum, 0.5 * total)])
    if mu < 0.0:
        raise DegenerateSample(f"weighted median {mu!r} lies below the price floor 0.0")
    with np.errstate(over="ignore"):
        # deviations past the float range are refused below
        deviations = np.subtract(values, mu)
        np.abs(deviations, out=deviations)
        np.multiply(weights, deviations, out=deviations)
        sigma = float(np.sum(deviations) / total)
    del deviations
    if not sigma < np.inf:
        raise DegenerateSample(f"the mean absolute deviation about {mu!r} overflows")
    if sigma <= 0.0:
        raise DegenerateSample("all observations coincide; scale is zero")
    if sigma < np.finfo(float).tiny:
        raise DegenerateSample(f"the mean absolute deviation {sigma!r} is below the "
                               "smallest normal float")
    params = LaplaceParams(mu=mu, sigma=sigma, mu_m=0.0)
    loglik = _scaled_back(-total * (np.log(2.0 * sigma) + 1.0), exponent)
    ks = _ks_of_sorted(values, cum, total, lambda x: laplace_cdf(x, params))
    return FitResult(
        family=FAMILY_LAPLACE,
        params=params,
        log_likelihood=loglik,
        ks_distance=ks,
        n=sample.size,
    )


def _sorted_scaled(sample: Sample) -> tuple[np.ndarray, np.ndarray, int]:
    """Values in ascending (stable) order, their weights scaled by
    :func:`~dispersim.samples.unit_scaled`, and the exponent that scales
    them back.

    Every weighted sum of the estimators is taken on these weights, so none
    overflows, and each ratio of two of them has the plain ratio's bits
    wherever the plain sums are normal.
    """
    s = sample.sorted()
    weights, (exponent,) = unit_scaled(s.weights)
    return s.values, weights, int(exponent)


def _scaled_back(x: float, exponent: int) -> float:
    """``x * 2 ** exponent``, rounded once: ``inf`` past the float range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, exponent))


def _log_moments(shift: float, values, weights, total, slope=False) -> tuple[float, ...]:
    """Weighted mean and variance of ``y = log(values - shift)``.

    With ``slope``, a third item carries the sign of the derivative in
    ``shift`` of the negative profile ``0.5 * log(var) + mean``, which is
    ``-E_w[(y - mean + var) / (values - shift)] / var``. It is that
    derivative times ``var * (values[0] - shift)``: for ascending values each
    ratio ``(values[0] - shift) / (values - shift)`` lies in (0, 1], so no
    term overflows, not even on subnormal gaps.
    """
    gaps = values - shift
    y = np.log(gaps)
    mean = float(np.sum(weights * y) / total)
    var = float(np.sum(weights * (y - mean) ** 2) / total)
    if slope:
        return mean, var, -float(np.sum(weights * (y - mean + var) * (gaps[0] / gaps)))
    return mean, var


def fit_shifted_lognormal(
    sample: Sample,
    shift_bounds: tuple[float, float] | None = None,
) -> FitResult:
    """Maximum-likelihood shifted lognormal fit with a profiled shift.

    For a fixed shift the location and log-scale estimates are the weighted
    mean and standard deviation of the shifted logs, in closed form; the
    concentrated likelihood is then maximized over the shift. One scan of
    65 evenly spaced shifts over the bounds picks the best node, and the
    two cells around it (one at a bound) are bisected on the sign of the
    profile's slope, which is closed-form too, until the bracket spans at
    most 2**-40 of the bounds width or its midpoint rounds onto an end.
    The end with the better profile is the shift, unless neither is better
    than the best node (a profile with more than one extremum in those
    cells, or flat to rounding at a bound), which then stands.
    Inside the bounds the shift is thus the profile's stationary point to
    that resolution, and a profile that falls all the way to a bound ends
    exactly on it. About 100 profile evaluations are made.
    Passing equal bounds pins the shift and skips the search.

    The likelihood is unbounded as the shift approaches the smallest
    observation (Hill 1963), so the search is always bracketed strictly
    below it; ``shift_bounds`` defaults to ``(0, 0.99 * min(values))`` and
    any upper bound is clamped below the smallest value. Only a maximum
    below that clamp is an estimate (Cohen & Whitten 1980): a search that
    ends on it is refused.

    Raises
    ------
    ValueError
        If ``shift_bounds`` are not ``0 <= lo <= hi`` as given.
    EmptyFeasibleShift
        If no candidate shift leaves every observation above it.
    DegenerateSample
        If fewer than three observations are given, all of them coincide,
        the shifted logs carry no spread at the optimum, or the best shift
        is the upper bound set by the smallest value: the profile has no
        local maximum in the bounds.
    """
    if shift_bounds is not None and not 0.0 <= shift_bounds[0] <= shift_bounds[1]:
        raise ValueError(f"shift bounds must satisfy 0 <= lo <= hi, got {tuple(shift_bounds)}")
    if sample.size < 3:
        raise DegenerateSample("need at least three observations for three parameters")
    values, weights, exponent = _sorted_scaled(sample)
    total = float(weights.sum())
    if values[0] == values[-1]:
        # every shift leaves logs of one value, whose variance is rounding
        raise DegenerateSample("all observations coincide; shifted logs carry no spread")
    min_x = float(values[0])
    tiny = 1e-12 * max(1.0, abs(min_x))
    if shift_bounds is None:
        if min_x <= 0.0:
            raise EmptyFeasibleShift(
                f"smallest observation {min_x!r} is not positive, so no nonnegative "
                "shift lies below it"
            )
        lo, hi = 0.0, 0.99 * min_x
        clamped = True
    else:
        lo, hi = float(shift_bounds[0]), float(shift_bounds[1])
        clamped = hi >= min_x - tiny
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

    shift = lo
    if lo < hi:
        nodes = np.linspace(lo, hi, _SCAN_NODES)
        best = int(np.argmin([negative_profile(g) for g in nodes]))
        a, b = float(nodes[max(best - 1, 0)]), float(nodes[min(best + 1, _SCAN_NODES - 1)])
        # the profile falls at a and rises at b, unless the end is still a
        # scan node; a midpoint that rounds onto an end stops the bisection
        while b - a > _RESOLUTION * (hi - lo) and a < (mid := a + 0.5 * (b - a)) < b:
            rises = _log_moments(mid, values, weights, total, slope=True)[2] > 0.0
            a, b = (a, mid) if rises else (mid, b)
        # the best node stands unless an end is better: so a tie at a bound
        # keeps the bound, and a profile with several extrema in the two
        # cells never ends worse than the scan
        shift = min((float(nodes[best]), a, b), key=negative_profile)
        if clamped and shift == hi:
            raise DegenerateSample(
                f"the shift profile has no local maximum in [{lo!r}, {hi!r}]: it rises "
                f"up to the bound {hi!r} that the smallest value {min_x!r} sets"
            )
    mean, var = _log_moments(shift, values, weights, total)
    if var <= 0.0:
        raise DegenerateSample("shifted logs carry no spread")
    params = LognormalParams(
        gamma=float(np.exp(mean)), omega=float(np.sqrt(var)), shift=shift
    )
    loglik = _scaled_back(-total * (0.5 * np.log(2.0 * np.pi * var) + 0.5 + mean), exponent)
    ks = _ks_of_sorted(values, np.cumsum(weights), total, lambda x: lognormal_cdf(x, params))
    return FitResult(
        family=FAMILY_SHIFTED_LOGNORMAL,
        params=params,
        log_likelihood=loglik,
        ks_distance=ks,
        n=sample.size,
    )


def ks_statistic(sample: Sample, cdf) -> float:
    """Weighted Kolmogorov-Smirnov distance to a model cumulative.

    ``cdf`` is any callable mapping an array of values to cumulative
    probabilities. The empirical cumulative steps by weight fractions and
    the distance takes the larger deviation on either side of each step,
    which for unit weights is the classical
    ``max(|i/n - F(x_i)|, |(i-1)/n - F(x_i)|)``. ``cdf`` is called on
    consecutive blocks of the sorted values, so it must act element-wise.
    """
    if sample.size == 0:
        raise DegenerateSample("cannot compare an empty sample to a law")
    values, weights, _ = _sorted_scaled(sample)
    return _ks_of_sorted(values, np.cumsum(weights), weights.sum(), cdf)


def _ks_of_sorted(values, cum, total, cdf) -> float:
    """``ks_statistic`` of nonempty values in ascending order.

    ``cum`` is the cumulative sum and ``total`` the sum of their weights,
    scaled as :func:`_sorted_scaled` scales them; ``cum`` is overwritten
    with the empirical fractions. The model cumulative and the gaps are
    taken a block of values at a time (see the module notes). At most five
    block-length float arrays are alive at once: the model cumulative, the
    first block's shifted fractions, and three of the differences, their
    absolute values and the gaps.
    """
    fractions = np.divide(cum, total, out=cum)
    worst = 0.0
    block = block_rows(5 * 8)
    for lo in range(0, values.size, block):
        hi = min(lo + block, values.size)
        model = np.asarray(cdf(values[lo:hi]), dtype=float)
        below = fractions[lo - 1:hi - 1] if lo else np.concatenate(([0.0], fractions[:hi - 1]))
        gaps = np.maximum(np.abs(fractions[lo:hi] - model), np.abs(below - model))
        worst = np.maximum(worst, gaps.max())  # a NaN gap stays NaN
    return float(worst)


def histogram(sample: Sample, grid) -> tuple[GriddedDistribution, float]:
    """Bin a sample to the nearest centers of a uniform grid.

    Returns the normalized binned law together with the weight fraction
    that fell outside the grid and was dropped.

    Raises
    ------
    DegenerateSample
        If the sample is empty or every observation falls outside the grid.
    ModelError
        If the binned law's unit-mass density overflows, as on a span near
        the least that the grid rule allows.
    """
    if sample.size == 0:
        raise DegenerateSample("cannot bin an empty sample")
    grid = checked_grid(grid)
    spacing = np.diff(grid)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("histogram grid must be uniform")
    h = float(spacing[0])
    with np.errstate(over="ignore"):
        # a value far off the grid may land on an infinite position
        position = np.rint((sample.values - grid[0]) / h)
    # mask before the cast: a position beyond the int range has no int
    inside = (position >= 0) & (position < grid.size)
    position = position[inside]
    # weights scaled so that no sum of them overflows; where none would, the
    # kept fraction and the normalized law keep their bits
    weights, _ = unit_scaled(sample.weights)
    total = float(weights.sum())
    weights = weights[inside]
    kept = float(weights.sum())
    if kept <= 0.0:
        raise DegenerateSample("every observation falls outside the grid")
    counts = np.bincount(position.astype(int), weights, minlength=grid.size)
    return GriddedDistribution.from_density(grid, counts), 1.0 - kept / total
