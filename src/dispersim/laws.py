"""Closed-form price laws: the two-sided exponential and the shifted lognormal.

The stationary dispersion of transaction prices around the mean price ``mu``
is a two-sided exponential (Laplace) law whose scale equals the gap between
the mean price and the floor price ``mu_m``. Over long horizons the mean
price itself wanders and the gap ``omega = mu - mu_m`` follows a shifted
lognormal law. The unconditional price law is the lognormal mixture of the
conditional Laplace laws, computed here in log space by Gauss-Legendre
quadrature on two panels split at the integrand's kink.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, roots_legendre

from .errors import QuadratureError

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
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (np.isfinite(self.mu_m) and self.mu_m >= 0):
            raise ValueError(f"mu_m must be nonnegative, got {self.mu_m}")
        if not (np.isfinite(self.mu) and self.mu >= self.mu_m):
            raise ValueError(
                f"mu must be finite and at least the floor, got mu={self.mu}, "
                f"mu_m={self.mu_m}"
            )


def laplace_density(prices, params: LaplaceParams) -> np.ndarray:
    """Density ``exp(-|p - mu| / sigma) / (2 sigma)``, untruncated."""
    p = np.asarray(prices, dtype=float)
    return np.exp(-np.abs(p - params.mu) / params.sigma) / (2.0 * params.sigma)


def laplace_cdf(prices, params: LaplaceParams) -> np.ndarray:
    """Two-branch cumulative; the branches agree at ``mu`` where it is 1/2."""
    p = np.asarray(prices, dtype=float)
    z = (p - params.mu) / params.sigma
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


def laplace_moments(params: LaplaceParams) -> tuple[float, float, float]:
    """Mean, variance, and standard deviation (``2 sigma**2`` variance)."""
    return params.mu, 2.0 * params.sigma**2, float(np.sqrt(2.0) * params.sigma)


def sigma_from_mean(mean_price: float, floor: float) -> tuple[float, bool]:
    """Dispersion scale implied by the floor price link, ``mu - mu_m``.

    Returns the scale together with a degeneracy flag: when the mean price
    sits on the floor the law collapses to a narrow peak and the scale is
    zero, which valid parameters cannot represent.
    """
    if mean_price < floor:
        raise ValueError(
            f"mean price {mean_price} must not be below the floor {floor}"
        )
    sigma = mean_price - floor
    return sigma, sigma == 0.0


def floor_linearization_error(delta_over_sigma: float) -> float:
    """Gap between the exponential tail and its linearization at the floor.

    The lower branch of the law is often approximated linearly over the
    distance ``delta`` between the mean and the floor. The approximation
    error at the floor is ``exp(-delta/sigma) - (1 - delta/sigma)``, always
    nonnegative and of second order for small ``delta/sigma``. The validity
    range of the linearization is not sharp, so this is reported as a
    diagnostic rather than checked against a bound.
    """
    x = float(delta_over_sigma)
    if x < 0.0:
        raise ValueError("delta/sigma must be nonnegative")
    return float(np.exp(-x) - (1.0 - x))


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
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not (np.isfinite(self.shift) and self.shift >= 0):
            raise ValueError(f"shift must be nonnegative, got {self.shift}")


def lognormal_density(values, params: LognormalParams) -> np.ndarray:
    """Density of the shifted lognormal law, zero at and below the shift."""
    w = np.atleast_1d(np.asarray(values, dtype=float))
    x = w - params.shift
    out = np.zeros_like(x, dtype=float)
    pos = x > 0.0
    log_term = np.log(x[pos] / params.gamma)
    out[pos] = np.exp(-(log_term**2) / (2.0 * params.omega**2)) / (
        np.sqrt(2.0 * np.pi) * params.omega * x[pos]
    )
    if np.isscalar(values) or np.asarray(values).ndim == 0:
        return out[0]
    return out


def lognormal_cdf(values, params: LognormalParams) -> np.ndarray:
    """Cumulative of the shifted lognormal law."""
    w = np.atleast_1d(np.asarray(values, dtype=float))
    x = w - params.shift
    out = np.zeros_like(x, dtype=float)
    pos = x > 0.0
    out[pos] = ndtr(np.log(x[pos] / params.gamma) / params.omega)
    if np.isscalar(values) or np.asarray(values).ndim == 0:
        return out[0]
    return out


def lognormal_moments(params: LognormalParams) -> tuple[float, float]:
    """Mean and variance of the shifted lognormal law."""
    g, o = params.gamma, params.omega
    mean = params.shift + g * np.exp(o**2 / 2.0)
    var = g**2 * np.exp(o**2) * (np.exp(o**2) - 1.0)
    return float(mean), float(var)


# ---------------------------------------------------------------------------
# Lognormal mixture of conditional Laplace laws
# ---------------------------------------------------------------------------


# Gauss-Legendre nodes and weights on [-1, 1] per node count; never mutated.
_legendre_rule = lru_cache(maxsize=None)(roots_legendre)


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
    there into two Gauss-Legendre panels (one if ``u*`` is outside it). From
    ``m = min(32, n_nodes // 2)`` nodes per panel, ``m`` doubles until the m-
    and 2m-node results agree to ``rel_tol`` of the density peak; ``n_nodes``
    caps the nodes per panel.

    Raises
    ------
    QuadratureError
        If the results still disagree when doubling again would exceed
        ``n_nodes``; the achieved agreement is attached.
    """
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
        x, w = _legendre_rule(m)
        t = mid[:, :, None] + half[:, :, None] * x
        gap = shift + gamma * np.exp(omega * t)
        scale = conditional_scale * gap
        f = np.exp(-0.5 * t**2 - np.abs(p[:, None, None] - floor - gap) / scale) / scale
        return ((f @ w) * half).sum(axis=1) / (2.0 * np.sqrt(2.0 * np.pi))

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
