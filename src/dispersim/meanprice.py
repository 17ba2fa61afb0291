"""Long-horizon wandering of the mean price over the floor.

Fast matching pins the instantaneous dispersion to the gap
``omega = mu - mu_m`` between the mean and the floor price, while slow
fluctuations of the demand-supply balance multiply the gap itself. Two
pieces live here: the deterministic price-adjustment drift under excess
demand, and the multiplicative-noise ensemble whose terminal law is
lognormal.

The gap walk is exact in log space,

    log omega_{n+1} = log omega_n + sqrt(2 D dt) * xi_n,    xi_n ~ N(0, 1),

so after ``N = n_steps`` steps of ``dt`` the gap is lognormal with median
``omega0`` and log standard deviation ``sqrt(2 D N dt)``. The ensemble
draws that terminal value directly, one normal per path, and fills stored
paths by a discrete Brownian bridge pinned to it (Glasserman, *Monte Carlo
Methods in Financial Engineering*, 2003, sec. 3.1); ``dt`` shapes the
stored paths and rounds the horizon to whole steps, nothing else.

The multiplicative noise is read in the Stratonovich sense; this is a
deliberate choice, since the alternating convention would add a spurious
``-D t`` drift in log space and the terminal law would no longer have
``omega0`` as its median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample
from .grids import step_count
from .laws import LognormalParams

__all__ = [
    "EnsembleResult", "SdeParams", "implied_lognormal", "simulate_mean_price",
    "walras_rhs",
]


@dataclass(frozen=True)
class SdeParams:
    """Ensemble parameters for the multiplicative gap walk.

    ``omega0`` is the common initial gap, ``noise_amp`` the white-noise
    intensity D (the noise autocorrelation is ``2 D`` times a delta), and
    ``seed`` the root of the terminal and bridge streams.
    """

    omega0: float
    noise_amp: float
    dt: float
    horizon: float
    n_paths: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.omega0 < math.inf:
            raise ValueError("omega0 must be positive and finite")
        if not 0.0 <= self.noise_amp < math.inf:
            raise ValueError("noise_amp must be nonnegative and finite")
        step_count(self.dt, self.horizon)
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")

    @property
    def n_steps(self) -> int:
        return step_count(self.dt, self.horizon)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Terminal gaps, their log-space summary, and optionally full paths.

    ``log_mean`` and ``log_std`` are the sample mean and standard deviation
    of ``log omega(T)``. ``paths`` has shape ``(n_paths, n_steps + 1)`` when
    stored and includes the initial value.
    """

    terminal: np.ndarray
    log_mean: float
    log_std: float
    paths: np.ndarray | None = None


def simulate_mean_price(params: SdeParams, store_paths: bool = False) -> EnsembleResult:
    """Simulate the gap ensemble to the horizon.

    The ``n_steps`` log increments of a path sum to one Gaussian, so the
    terminal gap is a single draw per path,

        log omega(T) = log omega0 + sqrt(2 D dt) * sqrt(n_steps) * xi,

    and a run without stored paths costs O(n_paths) in time and memory.
    Stored paths are a discrete Brownian bridge pinned to that terminal
    value: with ``W`` the running sum of a second block of standard normals
    and ``s = sqrt(2 D dt)``, step k is

        log omega0 + s * (W_k - (k/N) W_N) + (k/N) (log omega(T) - log omega0),

    which has the joint law of the step-by-step walk (covariance
    ``s**2 * min(j, k)``). So ``dt`` shapes the stored paths only; the
    terminal law depends on ``n_steps * dt``.

    Two streams spawned from the seed draw the terminal normals and the
    bridge block, both row-major, so path i does not depend on the ensemble
    size, and the terminal values are bitwise the same with and without
    stored paths. Positivity of every gap is structural: only logs are
    ever drawn.

    Raises
    ------
    ValueError
        If stored paths, 16 bytes a path and step, would pass
        :data:`~dispersim.grids.STEP_BUDGET`; this is checked before they
        are allocated.
    """
    n_steps = step_count(params.dt, params.horizon, 16 * params.n_paths if store_paths else 0)
    step_scale = np.sqrt(2.0 * params.noise_amp * params.dt)
    log_omega0 = np.log(params.omega0)
    terminal_seq, bridge_seq = np.random.SeedSequence(params.seed).spawn(2)
    xi = np.random.default_rng(terminal_seq).standard_normal(params.n_paths)
    log_gain = step_scale * math.sqrt(n_steps) * xi
    terminal = np.exp(log_omega0 + log_gain)
    paths = None
    if store_paths:
        # the output block is allocated before the scratch block (the other
        # order raised the process's peak RSS) and the pin is built inside
        # it, so no third (n_paths, n_steps) array is held
        paths = np.empty((params.n_paths, n_steps + 1))
        walk = np.random.default_rng(bridge_seq).standard_normal((params.n_paths, n_steps))
        np.cumsum(walk, axis=1, out=walk)
        walk *= step_scale
        walk += log_omega0
        # pin each row to its terminal: step k takes k/N of the end mismatch
        fraction = np.arange(1, n_steps + 1) / n_steps
        pin = paths[:, 1:]
        np.multiply(walk[:, -1:] - (log_omega0 + log_gain[:, None]), fraction, out=pin)
        walk -= pin
        np.exp(walk, out=pin)
        paths[:, 0] = params.omega0
        paths[:, -1] = terminal
    logs = np.log(terminal)
    log_std = float(np.std(logs, ddof=1)) if params.n_paths > 1 else 0.0
    return EnsembleResult(
        terminal=terminal,
        log_mean=float(np.mean(logs)),
        log_std=log_std,
        paths=paths,
    )


def implied_lognormal(params: SdeParams) -> LognormalParams:
    """Exact terminal law of the gap walk.

    The log walk keeps ``log omega`` Gaussian at every step, so the
    terminal gap is lognormal with median ``omega0`` and log standard
    deviation ``sqrt(2 D T)`` with ``T = n_steps * dt``, the horizon the
    walk actually runs (``horizon`` rounded to whole steps); no asymptotic
    limit is involved. The floor price is not part of the gap law and is
    carried separately as a shift by callers describing the mean price
    ``mu = mu_m + omega``.

    Raises
    ------
    DegenerateSample
        If ``D * T`` vanishes, leaving a point mass no lognormal can
        represent.
    """
    spread = 2.0 * params.noise_amp * params.n_steps * params.dt
    if spread <= 0.0:
        raise DegenerateSample("D * T is zero; the terminal law is a point mass")
    return LognormalParams(gamma=params.omega0, omega=float(np.sqrt(spread)), shift=0.0)


def walras_rhs(
    mu: float,
    mu_m: float,
    gain: float,
    demand_rate: float,
    supply_rate: float,
) -> float:
    """Price-adjustment drift of the mean price under excess demand.

    The mean price climbs when orders outnumber offers and falls in the
    opposite case, at a rate proportional to the current gap:

        d mu / dt = (mu - mu_m) * H * (demand_rate - supply_rate)

    so the floor is absorbing: at ``mu = mu_m`` the drift vanishes no
    matter the imbalance.
    """
    if mu < mu_m:
        raise ValueError(f"mu {mu} must not be below the floor {mu_m}")
    if gain < 0.0:
        raise ValueError("gain must be nonnegative")
    return (mu - mu_m) * gain * (demand_rate - supply_rate)
