"""Kinetic order-book simulator with per-bin matching.

Buy orders and sell offers wait in per-bin stocks on a price grid and
transact at rate ``eta * x_i * z_i`` within each bin, while inflows
replenish both sides. The integrator is an explicit scheme on the rate
equations; a step is only accurate while the per-bin depletion fraction
``eta * stock * dt`` stays small, which is enforced as a hard stability
bound at the start of a run and reported over the whole run as
``SimResult.worst_depletion``. Within a step the transacted units are
capped at the available stock so bin populations can never turn negative.

The step loop runs in blocks of steps over preallocated rows, so a step
allocates nothing and the scratch memory is bounded by a fixed 1 MiB
budget whatever the run length; the per-block reductions give the same
bits as a loop that books every step on its own. A block first runs
without the cap and keeps those bits when its peak entering stock proves
the cap slack, ``eta * dt * peak < 1/2``; only a block that fails the
check pays for a second, capped pass.

The price shapes of the inflows are a closure choice, not a law of the
model. The ``monotone`` closure feeds buy orders mostly toward the floor
and sell offers increasingly with price, using the two-branch exponential
weights of a reference law with CDF F, so the demand and supply inflow
densities d and s go as 1 - F and F. Which sales law a run approaches
depends on its horizon. Early on both stocks grow like their inflows, so
sales go as d * s and per-bin matching gives the overlap-shaped law
F (1 - F) of the quasi-static regime. Later the larger side piles up in
each bin and the smaller one sells out on arrival, so sales approach
min(d, s). From empty books on 401 bins over [0, 2] (rates 100, eta 1,
reference Laplace(1, 0.2)), the KS distance of the sales law to F (1 - F)
was 1.1e-5 at T = 0.5, and to min(d, s) 8.1e-4 at T = 50. The closure,
not the matching, thus sets the long-horizon law. The ``matched`` closure
feeds both sides with the same two-sided exponential profile so every bin
receives balanced inflows and the stocks admit an exactly stationary state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, StabilityViolation, ZeroMass, ZeroSalesVolume
from .grids import (
    GriddedDistribution, checked_grid, checked_value, on_grid, step_count, trapezoid,
)
from .laws import LaplaceParams, laplace_cdf, laplace_density

__all__ = [
    "InflowSpec", "MarketState", "SimResult", "initial_state", "run", "stationary_state",
]

#: Largest admissible per-bin depletion fraction per step.
STABILITY_BOUND = 0.1

INFLOW_SHAPES = ("monotone", "matched")


@dataclass(frozen=True, eq=False)
class MarketState:
    """Waiting stocks, matching rate, clock, and accumulated sales tallies.

    Totals are always the sums of the bins; they are exposed as properties
    rather than stored so they cannot drift out of sync.
    """

    grid: np.ndarray
    x_bins: np.ndarray
    z_bins: np.ndarray
    eta: float
    clock: float = 0.0
    cumulative_sales: np.ndarray | None = None
    cap_hits: int = 0

    def __post_init__(self):
        grid = checked_grid(self.grid)
        sales = np.zeros_like(grid) if self.cumulative_sales is None else self.cumulative_sales
        x_bins, z_bins, sales = on_grid(grid, self.x_bins, self.z_bins, sales)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "x_bins", checked_value("stocks (x_bins)", x_bins, 0.0))
        object.__setattr__(self, "z_bins", checked_value("stocks (z_bins)", z_bins, 0.0))
        object.__setattr__(self, "cumulative_sales", checked_value("cumulative_sales", sales, 0.0))
        checked_value("eta", self.eta, 0.0)
        checked_value("clock", self.clock)
        checked_value("cap_hits", self.cap_hits, 0, count=True)

    @property
    def x_total(self) -> float:
        return float(self.x_bins.sum())

    @property
    def z_total(self) -> float:
        return float(self.z_bins.sum())

    @property
    def event_count(self) -> float:
        return float(self.cumulative_sales.sum())


@dataclass(frozen=True)
class InflowSpec:
    """Total inflow rates and the price shapes distributing them over bins.

    Shapes come from a two-parameter reference law centered at ``mu_ref``
    with scale ``sigma_ref``. ``jitter`` adds an optional multiplicative
    lognormal factor of that amplitude to both rates each step, drawn from
    the run's seeded generator; at the default 0 a run is noise-free.
    """

    demand_rate: float
    supply_rate: float
    mu_ref: float
    sigma_ref: float
    shape: str = "monotone"
    jitter: float = 0.0

    def __post_init__(self):
        checked_value("inflow rates (demand_rate, supply_rate)",
                      [self.demand_rate, self.supply_rate], 0.0)
        checked_value("mu_ref", self.mu_ref)
        checked_value("sigma_ref", self.sigma_ref, 0.0, strict=True)
        if self.shape not in INFLOW_SHAPES:
            raise ValueError(f"shape must be one of {INFLOW_SHAPES}, got {self.shape!r}")
        checked_value("jitter", self.jitter, 0.0)

    def reference(self) -> LaplaceParams:
        return LaplaceParams(mu=self.mu_ref, sigma=self.sigma_ref)

    def shape_densities(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """Demand and supply inflow shapes as unit-integral densities.

        Raises :class:`~dispersim.errors.ZeroMass` if either shape
        underflows to zero on the whole grid.
        """
        grid = checked_grid(grid)
        ref = self.reference()
        if self.shape == "monotone":
            demand = 1.0 - laplace_cdf(grid, ref)
            supply = laplace_cdf(grid, ref)
        else:
            demand = laplace_density(grid, ref)
            supply = demand.copy()
        d_norm = trapezoid(demand, grid)
        s_norm = trapezoid(supply, grid)
        if d_norm <= 0.0 or s_norm <= 0.0:
            raise ZeroMass("inflow shape vanishes on the whole grid")
        return demand / d_norm, supply / s_norm

    def bin_weights(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """Per-bin inflow weights, each summing to exactly 1.

        Unit sums (rather than unit integrals) keep the discrete totals
        exactly conserved: a step deposits exactly ``rate * dt`` units.
        """
        demand, supply = self.shape_densities(grid)
        return demand / demand.sum(), supply / supply.sum()


@dataclass(frozen=True, eq=False)
class SimResult:
    """Sales law, per-step totals series, and the final market state.

    ``times``, ``x_series``, ``z_series`` and ``sales_rate_series`` are
    aligned per step. ``event_count`` is the total of units this run
    transacted. ``cap_hits``, ``sales_histogram`` and ``final_state`` also
    hold what the initial state carried: its cap hits and its cumulative
    sales, so a caller that wants this run's cap hits subtracts
    ``initial.cap_hits``.
    ``worst_depletion`` is the largest ``eta * dt * stock`` over the bins
    and over the stocks that entered each step, the fraction that the
    stability bound limits only at the start.
    """

    sales_histogram: GriddedDistribution
    times: np.ndarray
    x_series: np.ndarray
    z_series: np.ndarray
    sales_rate_series: np.ndarray
    event_count: float
    cap_hits: int
    worst_depletion: float
    final_state: MarketState


#: Byte budget of the step loop's scratch buffers, whatever the run length.
_SCRATCH_BYTES = 1 << 20

#: Most steps per block; on coarse grids a block then stays in cache.
_MAX_BLOCK = 64


def _block_steps(bins: int) -> int:
    """Steps per block of :func:`run` on ``bins`` bins.

    A block step holds six float rows of the grid's length (stocks before
    and after, uncapped units, transacted units, jittered inflows). The
    block is the largest one whose rows, plus the seed row, fit in
    :data:`_SCRATCH_BYTES`, at least 1.
    """
    row_bytes = 6 * 8 * bins + 16
    return max(1, min(_MAX_BLOCK, _SCRATCH_BYTES // row_bytes - 1))


def run(
    initial: MarketState,
    inflow: InflowSpec,
    dt: float,
    horizon: float,
    seed: int = 0,
) -> SimResult:
    """Integrate the market from ``initial`` until the horizon.

    Each step transacts ``min(eta * x_i * z_i * dt, x_i, z_i)`` units per
    bin, removes them from both sides, tallies them as sales at the bin
    price, then deposits the inflows (scaled by the per-step jitter factors)
    and advances the clock. The number of steps is ``round(horizon / dt)``,
    from :func:`~dispersim.grids.step_count`.
    The result is deterministic given ``(initial, inflow, dt, seed)``; the
    seed only feeds the optional inflow jitter.

    Steps run in blocks of up to 64 steps. Within a block each
    step writes into preallocated rows and allocates nothing; once per block
    the totals series, the sales rates, the cap hits, the worst depletion
    and the cumulative sales are reduced from those rows. The jitter
    normals of a block are drawn in one call into its scratch, in step
    order, so they are the same stream as two normals drawn per step. The
    scratch stays within 1 MiB on grids of up to about 11 000 bins, so
    memory grows with the run length only through the per-step series.

    Each block first runs without the cap: a step books
    ``(x_i * eta_dt) * z_i`` straight into its row, two multiplies. If the
    block's peak entering stock then has ``eta_dt * peak < 1/2``, the cap
    could not have bound in any of its steps. A rounded product is at most
    twice the exact one, even below the normal range, so
    ``fl(x_i * eta_dt) * z_i <= 2 * eta_dt * x_i * z_i < min(x_i, z_i)``,
    and rounding that product cannot pass ``min(x_i, z_i)``, itself a
    float. Both passes enter each step with the same stocks until the cap
    first binds, so the uncapped peak covers that step too. The uncapped
    bits are then the capped loop's and the block's cap count is 0.
    Otherwise the block runs again from its entering stocks,
    with the same jitter deposits, under the cap, and counts its hits; a
    capped block thus costs two passes. A NaN or infinite peak fails the
    check and takes the capped pass.

    Every result is bitwise what a step-by-step loop over the same
    arithmetic gives.

    Raises
    ------
    ValueError
        If ``dt`` or ``horizon`` is out of range, or the four per-step series,
        32 bytes a step, would pass :data:`~dispersim.grids.STEP_BUDGET`; this
        is checked before any per-step array exists.
    StabilityViolation
        If the initial stocks already violate ``eta * stock * dt < 0.1``
        in some bin.
    ModelError
        If the books overflow: the stocks, their totals or the sales are not
        finite at the end of a block. The run stops at the first such block.
    ZeroSalesVolume
        If the whole run transacts nothing, leaving no sales law to
        normalize.
    """
    n_steps = step_count(dt, horizon, 32)
    eta_dt = initial.eta * dt
    peak_stock = max(float(np.max(initial.x_bins)), float(np.max(initial.z_bins)), 0.0)
    worst = eta_dt * peak_stock
    if worst >= STABILITY_BOUND:
        raise StabilityViolation(
            f"eta * stock * dt = {worst:.3g} violates the stability bound "
            f"{STABILITY_BOUND}; shrink dt or eta"
        )
    rng = np.random.default_rng(seed)

    grid = initial.grid
    bins = grid.size
    d_weights, s_weights = inflow.bin_weights(grid)
    inflows = np.stack([inflow.demand_rate * dt * d_weights,
                        inflow.supply_rate * dt * s_weights])
    jitter = inflow.jitter
    half_var = 0.5 * jitter**2

    times = initial.clock + dt * np.arange(1, n_steps + 1)
    totals = np.empty((2, n_steps))
    sales_rate = np.empty(n_steps)
    sales = initial.cumulative_sales.copy()
    cap_hits = initial.cap_hits

    # Scratch rows: stocks[k] enters step k and stocks[k + 1] leaves it;
    # booked[0] is the running sales and booked[k + 1] the units step k
    # transacts, so one outer-axis reduction books a whole block in order.
    block = min(_block_steps(bins), n_steps)
    stocks = np.empty((block + 1, 2, bins))
    booked = np.empty((block + 1, bins))
    uncapped = np.empty((block, bins))
    stocks[0, 0] = initial.x_bins
    stocks[0, 1] = initial.z_bins
    if jitter > 0.0:
        factors = np.empty((block, 2))
        added = np.empty((block, 2, bins))
        deposits = list(added)
    else:
        deposits = [inflows] * block
    steps = list(zip(stocks[1:], stocks[:-1, 0], stocks[:-1, 1], stocks[1:, 0], stocks[1:, 1],
                     uncapped, booked[1:], deposits))

    # Books that overflow are refused at the end of the first block that
    # reaches them, so numpy's warnings on the way there are only noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, block):
            m = min(block, n_steps - start)
            if start:
                stocks[0] = stocks[block]
            if jitter > 0.0:
                rng.standard_normal(out=factors[:m])
                np.multiply(factors[:m], jitter, out=factors[:m])
                np.subtract(factors[:m], half_var, out=factors[:m])
                np.exp(factors[:m], out=factors[:m])
                np.multiply(factors[:m, :, None], inflows, out=added[:m])
            # uncapped first, kept if the peak proves the cap slack (see the
            # docstring); a rerun starts from stocks[0], which no step writes
            for capped in (False, True):
                for after, x, z, x_after, z_after, u, t, deposit in steps[:m]:
                    if capped:
                        np.multiply(x, eta_dt, out=u)
                        np.multiply(u, z, out=u)
                        np.minimum(u, x, out=t)
                        np.minimum(t, z, out=t)
                    else:
                        np.multiply(x, eta_dt, out=t)
                        np.multiply(t, z, out=t)
                    # two row subtracts cost less than one (2, bins) - (bins,) broadcast
                    np.subtract(x, t, out=x_after)
                    np.subtract(z, t, out=z_after)
                    np.add(after, deposit, out=after)
                peak = float(np.max(stocks[:m]))
                if not capped and eta_dt * peak < 0.5:
                    break
            if capped:
                # a step's units fall short of its uncapped ones only at the cap
                cap_hits += int(np.count_nonzero(booked[1:m + 1] < uncapped[:m]))
            peak_stock = max(peak_stock, peak)

            span = slice(start, start + m)
            np.add.reduce(stocks[1:m + 1], axis=2, out=totals[:, span].T)
            np.add.reduce(booked[1:m + 1], axis=1, out=sales_rate[span])
            np.divide(sales_rate[span], dt, out=sales_rate[span])
            # MarketState refuses grids of fewer than 2 nodes, so this reduction
            # runs over two or more columns and adds each bin's rows in step
            # order; on one column numpy would add them pairwise.
            booked[0] = sales
            np.add.reduce(booked[:m + 1], axis=0, out=sales)
            # Stocks are nonnegative, so their totals are finite only if they
            # are. ndarray.max keeps a NaN, which Python's max would skip.
            reduced = (totals[:, span].max(), sales_rate[span].max(), sales.max())
            if not all(map(math.isfinite, reduced)):
                raise ModelError(
                    f"the books overflow: stocks, totals or sales are not finite "
                    f"by step {start + m}")
    event_count = float(sales.sum()) - initial.event_count
    if event_count <= 0.0:
        raise ZeroSalesVolume("no units transacted over the whole run")
    final_state = MarketState(
        grid=grid, x_bins=stocks[m, 0].copy(), z_bins=stocks[m, 1].copy(),
        eta=initial.eta, clock=initial.clock + n_steps * dt,
        cumulative_sales=sales, cap_hits=cap_hits,
    )
    return SimResult(
        sales_histogram=GriddedDistribution.from_density(grid, sales),
        times=times,
        x_series=totals[0],
        z_series=totals[1],
        sales_rate_series=sales_rate,
        event_count=event_count,
        cap_hits=cap_hits,
        worst_depletion=eta_dt * peak_stock,
        final_state=final_state,
    )


def initial_state(
    grid,
    eta: float,
    inflow: InflowSpec,
    x_total: float = 0.0,
    z_total: float = 0.0,
) -> MarketState:
    """Market state with initial stocks spread like the inflow shapes."""
    checked_value("x_total", x_total, 0.0)
    checked_value("z_total", z_total, 0.0)
    d_weights, s_weights = inflow.bin_weights(grid)
    return MarketState(grid=grid, x_bins=x_total * d_weights, z_bins=z_total * s_weights, eta=eta)


def stationary_state(grid, eta: float, inflow: InflowSpec) -> MarketState:
    """Exactly stationary stocks for the ``matched`` closure.

    With identical per-bin inflow rates ``r_i`` on both sides, stocks
    ``x_i = z_i = sqrt(r_i / eta)`` balance depletion against inflow:
    ``eta * x_i * z_i = r_i`` in every bin. Only defined for the matched
    closure with equal rates.
    """
    if inflow.shape != "matched":
        raise ValueError("stationary stocks are only defined for the matched closure")
    if inflow.demand_rate != inflow.supply_rate:
        raise ValueError("stationary stocks need equal demand and supply rates")
    checked_value("eta", eta, 0.0, strict=True)
    d_weights, _ = inflow.bin_weights(grid)
    stock = np.sqrt(inflow.demand_rate * d_weights / eta)
    return MarketState(grid=grid, x_bins=stock, z_bins=stock.copy(), eta=eta)
