"""Differential tests of the shift search against scipy's bounded minimizer.

``reference_fit_shifted_lognormal`` below is the ``fit_shifted_lognormal``
that the nested grid scan replaced: a 64-point scan of the shift profile,
refined by ``scipy.optimize.minimize_scalar`` to ``rel_tol`` of the bounds
width. It is kept verbatim apart from its name and docstring. On generated
samples the two searches must find shifts within ``1e-6`` of the bounds
width of each other, or raise the same exception class. Where the profile
is flat to rounding over more than that width, the two may part further,
and the new shift must then be at least as good to within four ulp. Where
the new search refuses a best shift on the clamp below the smallest value,
the reference must end there too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from dispersim.errors import DegenerateSample, EmptyFeasibleShift
from dispersim.estimate import (
    FAMILY_SHIFTED_LOGNORMAL,
    FitResult,
    _log_moments,
    fit_shifted_lognormal,
    ks_statistic,
)
from dispersim.laws import LognormalParams, lognormal_cdf
from dispersim.samples import Sample


def reference_fit_shifted_lognormal(
    sample: Sample,
    shift_bounds: tuple[float, float] | None = None,
    grid_points: int = 64,
    rel_tol: float = 1e-6,
) -> FitResult:
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


def _negative_profile(sample, shift):
    s = sample.sorted()
    mean, var = _log_moments(shift, s.values, s.weights, s.total_weight)
    return 0.5 * np.log(var) + mean


def _outcome(fit, sample, bounds):
    try:
        return "ok", fit(sample, shift_bounds=bounds)
    except (DegenerateSample, EmptyFeasibleShift) as exc:
        return type(exc), exc


@st.composite
def _cases(draw):
    """A seeded shifted lognormal sample and shift bounds for it.

    Explicit bounds are fractions of the smallest value, at least 0.2 of it
    apart: scipy's own stopping rule adds ``1.5e-8 * |shift|`` to its
    tolerance, which must stay small against the bounds width. An upper
    fraction above 1 is clamped below the smallest value.
    """
    n = draw(st.integers(3, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = draw(st.floats(0.0, 2.0))
    gamma = draw(st.floats(0.1, 10.0))
    omega = draw(st.floats(0.05, 1.5))
    values = shift + gamma * np.exp(omega * rng.standard_normal(n))
    weights = rng.uniform(0.5, 3.0, n) if draw(st.booleans()) else None
    bounds = None
    if draw(st.booleans()):
        low = draw(st.floats(0.0, 0.5))
        bounds = (low * values.min(), draw(st.floats(low + 0.2, 1.3)) * values.min())
    return Sample(values, weights), bounds


@settings(max_examples=100)
@given(_cases())
@example((Sample(1.0 + np.random.default_rng(0).exponential(1.0, 30) ** 2), None))
@example((Sample(np.array([1.0, 2.0, 4.0])), None))
@example((Sample(np.array([1.0, 2.0, 4.0])), (0.5, 0.5)))
@example((Sample(np.array([1.0, 2.0, 4.0])), (1.0, 2.0)))
# A profile flat to rounding: the shifts part by 1.5e-6 of the bounds width.
@example((Sample(np.array([1.6848429049858946, 1.6750397990897088, 1.6834906761012172,
                           1.7156148142593979, 1.69110150008382, 1.6565856317914693,
                           1.7154367314207097])), None))
def test_shift_matches_the_scipy_search(case):
    sample, bounds = case
    new = _outcome(fit_shifted_lognormal, sample, bounds)
    ref = _outcome(reference_fit_shifted_lognormal, sample, bounds)
    min_x = float(sample.values.min())
    if bounds is None:
        lo, hi = 0.0, 0.99 * min_x
    else:
        lo, hi = bounds[0], min(bounds[1], min_x - 1e-12 * max(1.0, abs(min_x)))
    tol = 1e-6 * (hi - lo)
    if new[0] is DegenerateSample and "no local maximum" in str(new[1]):
        assert ref[0] == "ok"
        assert hi - ref[1].params.shift <= tol
    elif new[0] != "ok" or ref[0] != "ok":
        assert new[0] == ref[0]
    elif abs(new[1].params.shift - ref[1].params.shift) > tol:
        best = _negative_profile(sample, ref[1].params.shift)
        assert _negative_profile(sample, new[1].params.shift) <= best + 4 * np.spacing(abs(best))
