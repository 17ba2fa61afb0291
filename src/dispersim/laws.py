"""Closed-form price laws: the two-sided exponential and the shifted lognormal.

The stationary dispersion of transaction prices around the mean price ``mu``
is a two-sided exponential (Laplace) law whose scale equals the gap between
the mean price and the floor price ``mu_m``. Over long horizons the mean
price itself wanders and the gap ``omega = mu - mu_m`` follows a shifted
lognormal law. The unconditional price law is the lognormal mixture of the
conditional Laplace laws, computed here in log space by Gauss-Legendre
quadrature on two panels split at the integrand's kink. The Gauss-Legendre
rule is built here in numpy (Newton's method on the three-term recurrence),
and the normal cumulative of :func:`lognormal_cdf` comes from ``math.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError
from .grids import block_rows, checked_value

__all__ = [
    "LaplaceParams", "LognormalParams", "laplace_cdf", "laplace_density", "laplace_eval",
    "lognormal_cdf", "lognormal_density", "mixture_density",
]

_erfc = np.frompyfunc(math.erfc, 1, 1)

#: Smallest positive normal float.
_TINY = np.finfo(float).tiny

# ---------------------------------------------------------------------------
# Two-sided exponential (Laplace)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceParams:
    """Mean price ``mu``, scale ``sigma``, and floor price ``mu_m``.

    The floor is the lowest price at which units are offered; the law's
    analytic support is unbounded but the empirical support starts there,
    which is why evaluation offers an optional truncated mode.
    """

    mu: float
    sigma: float
    mu_m: float = 0.0

    def __post_init__(self):
        # at least the smallest normal float, so that 1 / (2 sigma) is finite
        checked_value("sigma", self.sigma, _TINY)
        checked_value("mu_m", self.mu_m, 0.0)
        checked_value("mu", self.mu, self.mu_m, low_name="mu_m")


def _standardized(prices, params: LaplaceParams) -> np.ndarray:
    """``(p - mu) / sigma``; a quotient past the float range is infinite, its limit."""
    p = np.asarray(prices, dtype=float)
    with np.errstate(over="ignore"):
        return (p - params.mu) / params.sigma


def laplace_density(prices, params: LaplaceParams) -> np.ndarray:
    """Density ``exp(-|p - mu| / sigma) / (2 sigma)``, untruncated."""
    return np.exp(-np.abs(_standardized(prices, params))) / (2.0 * params.sigma)


def laplace_cdf(prices, params: LaplaceParams) -> np.ndarray:
    """Two-branch cumulative; the branches agree at ``mu`` where it is 1/2."""
    z = _standardized(prices, params)
    lower = 0.5 * np.exp(np.minimum(z, 0.0))
    upper = 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0))
    return np.where(z <= 0.0, lower, upper)


def laplace_eval(
    prices, params: LaplaceParams, truncated: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Density and cumulative at ``prices``.

    By default the analytic untruncated forms are returned even below the
    floor. With ``truncated`` the mass below ``mu_m`` is cut off and the
    remainder renormalized, the variant used when fitting data whose support
    genuinely starts at the floor.
    """
    p = np.asarray(prices, dtype=float)
    density = laplace_density(p, params)
    cumulative = laplace_cdf(p, params)
    if truncated:
        floor_mass = float(laplace_cdf(params.mu_m, params))
        surviving = 1.0 - floor_mass
        below = p < params.mu_m
        density = np.where(below, 0.0, density / surviving)
        cumulative = np.where(below, 0.0, (cumulative - floor_mass) / surviving)
    return density, cumulative


# ---------------------------------------------------------------------------
# Shifted lognormal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LognormalParams:
    """Shifted lognormal law for the mean-floor gap.

    ``log(w - shift)`` is normal with location ``log(gamma)`` and standard
    deviation ``omega``; ``shift`` is the additive lower bound of the
    support.
    """

    gamma: float
    omega: float
    shift: float = 0.0

    def __post_init__(self):
        checked_value("gamma", self.gamma, 0.0, strict=True)
        checked_value("omega", self.omega, 0.0, strict=True)
        checked_value("shift", self.shift, 0.0)


def _on_support(values, shift: float, law) -> np.ndarray:
    """``law(x)`` at ``x = values - shift`` where ``values > shift``, zero elsewhere.

    Only the positive differences are taken, so none overflows. A scalar
    ``values`` gives a scalar.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    out = np.zeros_like(v)
    pos = v > shift
    out[pos] = law(v[pos] - shift)
    return out[0] if np.ndim(values) == 0 else out


def _log_ratio(x: np.ndarray, gamma: float) -> np.ndarray:
    """``log(x / gamma)`` for positive finite ``x``, without overflow.

    Where the quotient is a normal float this is the log of the quotient.
    Elsewhere the quotient overflows, or loses bits below the normal range,
    and the log is taken as ``log(x) - log(gamma)``.
    """
    with np.errstate(over="ignore", divide="ignore"):
        ratio = x / gamma
        log_ratio = np.log(ratio)
    odd = ~((_TINY <= ratio) & (ratio < np.inf))
    log_ratio[odd] = np.log(x[odd]) - math.log(gamma)
    return log_ratio


def lognormal_density(values, params: LognormalParams) -> np.ndarray:
    """Density of the shifted lognormal law, zero at and below the shift.

    The plain form ``exp(-log(x / gamma)**2 / (2 omega**2)) / (sqrt(2 pi)
    omega x)`` is kept where its denominator is a normal float and its
    numerator is normal too, or its denominator is at least 1: a numerator
    that underflowed then leaves the quotient below the normal range, as
    the density is. Elsewhere, as for ``x`` near the float maximum or an
    ``omega`` whose square leaves the float range, the density is taken in
    log space.
    """
    gamma, omega = params.gamma, params.omega

    def law(x):
        log_term = _log_ratio(x, gamma)
        # the plain form's overflows and NaNs all fall in ``odd``, redone below;
        # omega is squared as a numpy float, which overflows to inf where a
        # Python float's square raises
        with np.errstate(all="ignore"):
            scale = np.sqrt(2.0 * np.pi) * omega * x
            peak = np.exp(-(log_term**2) / (2.0 * np.float64(omega) ** 2))
            density = peak / scale
            odd = ~((_TINY <= scale) & (scale < np.inf)
                    & ((peak >= _TINY) | ((scale >= 1.0) & (peak >= 0.0))))
            z = log_term[odd] / omega
            density[odd] = np.exp(-0.5 * z * z - np.log(x[odd])
                                  - (math.log(omega) + 0.5 * math.log(2.0 * math.pi)))
        return density

    return _on_support(values, params.shift, law)


def lognormal_cdf(values, params: LognormalParams) -> np.ndarray:
    """Cumulative of the shifted lognormal law, ``0.5 * erfc(-z / sqrt(2))``."""

    def law(x):
        with np.errstate(over="ignore"):  # a z past the float range has the limit's value
            z = _log_ratio(x, params.gamma) / params.omega
        return 0.5 * _erfc(-z / np.sqrt(2.0)).astype(float)

    return _on_support(values, params.shift, law)


# ---------------------------------------------------------------------------
# Lognormal mixture of conditional Laplace laws
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (increasing) and weights on [-1, 1] for ``m`` nodes.

    Newton's method on ``P_m``, evaluated by the three-term recurrence and
    started from Tricomi's approximation of the roots, finds the nonnegative
    nodes; the others follow by symmetry. The weights are ``2 / ((1 - x^2)
    P_m'(x)^2)`` with ``1 - x^2`` formed as ``(1 - x)(1 + x)`` and ``P_m'``
    from ``P_m`` and ``P_{m-1}``, which keeps the smallest weights, next to
    the endpoints, accurate. The cost is O(m^2): about 0.2 s at m = 4096 on
    one core of a shared 2-vCPU Xeon server. Results are cached per ``m``
    and never mutated.
    """
    k = np.arange(1, (m + 1) // 2 + 1)
    x = (1.0 - (m - 1) / (8.0 * m**3)) * np.cos(np.pi * (4 * k - 1) / (4 * m + 2))

    def value_and_slope(x):
        p_prev, p = np.ones_like(x), x
        for j in range(2, m + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, m * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))

    for _ in range(20):
        p, slope = value_and_slope(x)
        step = p / slope
        x = x - step
        if float(np.max(np.abs(step))) < 1e-14:
            break
    else:
        raise QuadratureError(f"Gauss-Legendre nodes for m = {m} did not converge")
    if m % 2:
        x[-1] = 0.0  # P_m(0) = 0 exactly for odd m
    _, slope = value_and_slope(x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * slope**2)
    return np.concatenate((-x, x[::-1][m % 2:])), np.concatenate((w, w[::-1][m % 2:]))


def mixture_density(
    prices,
    mean_price_law: LognormalParams,
    floor: float = 0.0,
    conditional_scale: float = 1.0,
    n_nodes: int = 4097,
    rel_tol: float = 1e-6,
) -> np.ndarray:
    """Unconditional price density mixing Laplace laws over the gap law.

    Conditional on a gap ``w`` between the mean price and the floor, prices
    follow a Laplace law with mean ``floor + w`` and scale
    ``conditional_scale * w`` (the scale is proportional to the gap, with
    proportionality 1 by default). Averaging over the lognormal
    ``mean_price_law`` of the gap gives the unconditional density.
    Shrinking ``conditional_scale`` toward zero collapses the conditional
    law to a point mass and recovers the shifted lognormal itself on the
    price axis; shrinking the gap law's ``omega`` recovers a single Laplace.

    The quadrature substitutes ``u = log(w - shift)``, under which the gap
    law is Gaussian, kept to eight log standard deviations each side. The
    integrand kinks at ``u* = log(p - floor - shift)``, so the range is split
    there into two Gauss-Legendre panels (one if ``u*`` is outside it). The
    m-node rule is built in numpy by Newton's method on the Legendre
    recurrence and cached per ``m`` (:func:`_legendre_rule`); its nodes lie
    within two ulp of scipy's ``roots_legendre``. From
    ``m = min(32, n_nodes // 2)`` nodes per panel, ``m`` doubles until the m-
    and 2m-node results agree to ``rel_tol`` of the density peak; ``n_nodes``
    caps the nodes per panel.

    Each rule is applied to blocks of prices. The integrand of a block is
    evaluated in three ``(block, 2, m)`` buffers (the node ``t``, the gap
    and the conditional scale), allocated once a rule and reused by every
    block with ``out=`` ufuncs. A price takes ``3 * 2 * m`` floats of them,
    from which the scratch rule :func:`~dispersim.grids.block_rows` sizes
    the blocks (one price a block when its floats alone pass the budget),
    so a run that refines to many nodes needs memory bounded in the
    prices. The ufuncs apply the plain formula's operations in its
    order, each rounding once; ``p - floor`` is taken once for all prices,
    as the formula takes it first. Every step but the product with the
    weights is element-wise, and that product takes each price's row on
    its own, so a price's density has the bits of the plain formula in any
    block.

    Raises
    ------
    QuadratureError
        If the results still disagree when doubling again would exceed
        ``n_nodes``; the achieved agreement is attached.
    """
    checked_value("conditional_scale", conditional_scale, 0.0, strict=True)
    checked_value("floor", floor, 0.0)
    # at least 9, so that the first rule has 4 nodes and a refinement to check
    n_nodes = checked_value("n_nodes", n_nodes, 9, count=True)
    checked_value("rel_tol", rel_tol, 0.0, strict=True)
    p = np.atleast_1d(np.asarray(prices, dtype=float))

    gamma, omega, shift = mean_price_law.gamma, mean_price_law.omega, mean_price_law.shift
    above = p - floor
    # Panels [-8, kink], [kink, 8] in t = (u - log gamma) / omega; a clipped kink empties one.
    kink = np.clip(np.log(np.maximum(above - shift, 1e-300) / gamma) / omega, -8.0, 8.0)
    half = np.stack([8.0 + kink, 8.0 - kink], axis=1) / 2.0
    mid = np.stack([kink - 8.0, kink + 8.0], axis=1) / 2.0

    def integrate(m: int) -> np.ndarray:
        x, w = _legendre_rule(m)
        density = np.empty(p.size)
        rows = min(p.size, block_rows(3 * 2 * m * 8))
        buffers = np.empty((3, rows, 2, m))
        for lo in range(0, p.size, rows):
            block = slice(lo, lo + rows)
            t, gap, scale = buffers[:, :min(rows, p.size - lo)]
            # t = mid + half * x
            np.multiply(half[block, :, None], x, out=t)
            np.add(mid[block, :, None], t, out=t)
            # gap = shift + gamma * exp(omega * t); scale = conditional_scale * gap
            np.multiply(omega, t, out=gap)
            np.exp(gap, out=gap)
            np.multiply(gamma, gap, out=gap)
            np.add(shift, gap, out=gap)
            np.multiply(conditional_scale, gap, out=scale)
            # f = exp(-0.5 * t**2 - |(p - floor) - gap| / scale) / scale, into t
            np.subtract(above[block, None, None], gap, out=gap)
            np.abs(gap, out=gap)
            np.divide(gap, scale, out=gap)
            np.square(t, out=t)
            np.multiply(-0.5, t, out=t)
            np.subtract(t, gap, out=t)
            np.exp(t, out=t)
            np.divide(t, scale, out=t)
            density[block] = ((t @ w) * half[block]).sum(axis=1)
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
