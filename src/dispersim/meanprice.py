"""Long-horizon wandering of the mean price over the floor.

Fast matching pins the instantaneous dispersion to the gap
``omega = mu - mu_m`` between the mean and the floor price, while slow
fluctuations of the demand-supply balance multiply the gap itself. Two
pieces live here: the deterministic price-adjustment drift under excess
demand, and the multiplicative-noise ensemble whose terminal law is
lognormal.

The gap walk is simulated exactly in log space,

    log omega_{n+1} = log omega_n + sqrt(2 D dt) * xi_n,    xi_n ~ N(0, 1),

so after a horizon T the gap is lognormal with median ``omega0`` and log
standard deviation ``sqrt(2 D T)``. The multiplicative noise is read in the
Stratonovich sense; this is a deliberate choice, since the alternating
convention would add a spurious ``-D t`` drift in log space and the
terminal law would no longer have ``omega0`` as its median.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample
from .laws import LognormalParams


@dataclass(frozen=True)
class SdeParams:
    """Ensemble parameters for the multiplicative gap walk.

    ``omega0`` is the common initial gap, ``noise_amp`` the white-noise
    intensity D (the noise autocorrelation is ``2 D`` times a delta), and
    ``seed`` the base of the per-path seed sequence.
    """

    omega0: float
    noise_amp: float
    dt: float
    horizon: float
    n_paths: int
    seed: int = 0

    def __post_init__(self):
        if self.omega0 <= 0.0:
            raise ValueError("omega0 must be positive")
        if self.noise_amp < 0.0:
            raise ValueError("noise_amp must be nonnegative")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least dt")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")

    @property
    def n_steps(self) -> int:
        return max(int(round(self.horizon / self.dt)), 1)


@dataclass(frozen=True)
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


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Generator for one path, independent of how many paths are drawn."""
    return np.random.default_rng((seed, path_index))


def simulate_mean_price(params: SdeParams, store_paths: bool = False) -> EnsembleResult:
    """Simulate the gap ensemble to the horizon.

    Each path draws its increments from its own counter-seeded stream, so
    path i is identical no matter the ensemble size or the order of
    simulation, and the whole ensemble is reproducible from the seed alone.
    Positivity of every gap is structural: only logs are ever updated.
    """
    n_steps = params.n_steps
    step_scale = np.sqrt(2.0 * params.noise_amp * params.dt)
    log_omega0 = np.log(params.omega0)
    terminal = np.empty(params.n_paths)
    paths = np.empty((params.n_paths, n_steps + 1)) if store_paths else None
    for i in range(params.n_paths):
        increments = path_rng(params.seed, i).standard_normal(n_steps)
        # the terminal value never depends on whether paths are stored
        terminal[i] = np.exp(log_omega0 + step_scale * increments.sum())
        if store_paths:
            log_path = log_omega0 + step_scale * np.cumsum(increments)
            paths[i, 0] = params.omega0
            paths[i, 1:] = np.exp(log_path)
            paths[i, -1] = terminal[i]
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
    deviation ``sqrt(2 D T)`` at any finite horizon; no asymptotic limit
    is involved. The floor price is not part of the gap law and is carried
    separately as a shift by callers describing the mean price
    ``mu = mu_m + omega``.

    Raises
    ------
    DegenerateSample
        If ``D * T`` vanishes, leaving a point mass no lognormal can
        represent.
    """
    spread = 2.0 * params.noise_amp * params.horizon
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
