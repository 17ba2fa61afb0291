"""Benchmark workloads: seeded inputs, CLI invocation lists, output checks.

Each workload writes its inputs with its own numpy code (never with
dispersim's writers, so that set-up does not exercise the layers under test)
and returns the list of CLI invocations one pass makes, in order. Every
invocation carries a check that names its reference and tolerance; a check
returns ``None`` when the artifacts pass and a message otherwise. The
reference formulas (Laplace CDF and fit, lognormal density, trapezoid mass)
are written out here rather than imported from the package, so that a
defect in a layer cannot pass its own check.

Workloads and why they were chosen:

``sim-sweep``
    ``simulate-kinetic`` and ``simulate-meanprice`` only: the kinetic and
    mean-price kernels do the work, the mixture, dataio and estimate layers
    none. 101 against 2001 bins separates per-step Python overhead from
    array work; ``sde.store_paths`` is the write-heavy path in ``cli``.
``closed-forms``
    ``mixture`` and ``fixed-point``: ``laws.mixture_density`` does nearly all
    the work and sets the peak memory; 401 against 4001 prices shows how its
    cost scales. The ``fixed-point`` run at the CLI's default tolerance is
    kept as it is, although it does not converge at this grid size.
``data-pipeline``
    ``normalize`` at the coarsest and the finest grouping (few large against
    many small groups) and ``fit`` on a group-spread sample and on a 1e6-row
    weighted sample: the read and write halves of ``dataio`` plus
    ``estimate``, with no simulator or quadrature work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: CLI subcommand -> end-to-end metric of its summed time per pass.
SUBCOMMAND_METRICS = {
    "simulate-kinetic": "simulate_kinetic_s",
    "simulate-meanprice": "simulate_meanprice_s",
    "mixture": "mixture_s",
    "fixed-point": "fixed_point_s",
    "normalize": "normalize_s",
    "fit": "fit_s",
}

#: Subdirectory of the work directory that holds one output directory per invocation.
OUT_DIR = "out"

#: ``fixedpoint.tol`` when the config leaves it out, as documented by the CLI.
CLI_DEFAULT_FIXEDPOINT_TOL = 1e-3


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``dispersim <command> <config> --out <work>/out/<name>``.

    ``check(out_root)`` inspects the artifacts of this and earlier
    invocations of the same pass.
    """

    name: str
    command: str
    config: Path
    check: Callable[[Path], str | None]


def _write_config(path: Path, pairs: dict) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()))
    return path


def _keyvalues(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _columns(path: Path) -> np.ndarray:
    """Numeric CSV with a header row, as columns."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


def _laplace_cdf(x, mu, sigma):
    z = (np.asarray(x) - mu) / sigma
    return np.where(z <= 0.0, 0.5 * np.exp(np.minimum(z, 0.0)),
                    1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)))


def _weighted_laplace_fit(values, weights) -> tuple[float, float, float]:
    """Weighted-median location, mean-absolute-deviation scale, and KS distance."""
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[order]
    cum = np.cumsum(weights)
    total = cum[-1]
    mu = float(values[np.searchsorted(cum, 0.5 * total)])
    sigma = float(np.sum(weights * np.abs(values - mu)) / total)
    model = _laplace_cdf(values, mu, sigma)
    above = cum / total
    below = np.concatenate(([0.0], above[:-1]))
    ks = float(np.max(np.maximum(np.abs(above - model), np.abs(below - model))))
    return mu, sigma, ks


def _no_check(out: Path):
    """Exit code and determinism only."""
    return None


def _seed(rng) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# sim-sweep
# ---------------------------------------------------------------------------


def _check_kinetic_matched(mu_ref: float, name: str):
    def check(out: Path):
        """Criterion 4: Laplace fit to the sales law, |mu - mu_ref| < 0.02, KS < 0.05."""
        price, density = _columns(out / name / "sales_histogram.csv")
        mu, _, ks = _weighted_laplace_fit(price, density)
        if abs(mu - mu_ref) >= 0.02 or ks >= 0.05:
            return f"sales law fit mu={mu:.4g} (ref {mu_ref}), KS={ks:.4g} (< 0.05)"
        return _check_no_cap_hits(out / name)
    return check


def _check_no_cap_hits(out_dir: Path):
    cap_hits = int(_keyvalues(out_dir / "summary.txt")["cap_hits"])
    return None if cap_hits == 0 else f"cap_hits = {cap_hits}, expected 0"


def _check_kinetic_monotone(grid: np.ndarray, mu_ref: float, sigma_ref: float, name: str):
    def check(out: Path):
        """No cap hits; sales median within 2 bins of the quasi-static law's median
        and of the books' intercept price (the quasi-static reference)."""
        from dispersim.quasistatic import (
            SupplyDemandCurves, intercept_price, quasi_static_density,
        )

        problem = _check_no_cap_hits(out / name)
        if problem:
            return problem
        # Cumulatives of the monotone closure's inflow books.
        demand = 1.0 - _laplace_cdf(grid, mu_ref, sigma_ref)
        supply = _laplace_cdf(grid, mu_ref, sigma_ref)
        books = []
        for shape in (demand, supply):
            cum = np.concatenate(([0.0], np.cumsum(0.5 * (shape[1:] + shape[:-1]) * np.diff(grid))))
            books.append(cum / cum[-1])
        f_x, f_z = books
        law, _ = quasi_static_density(f_z, f_x, grid)
        crossing = intercept_price(SupplyDemandCurves.from_books(grid, f_x, f_z))
        price, density = _columns(out / name / "sales_histogram.csv")
        cum = np.cumsum(density)
        median = float(price[np.searchsorted(cum, 0.5 * cum[-1])])
        tol = 2.0 * float(grid[1] - grid[0])
        if abs(median - law.median()) > tol or abs(median - crossing) > tol:
            return (f"sales median {median:.4g} vs quasi-static median "
                    f"{law.median():.4g} and intercept {crossing:.4g} (tol {tol:.3g})")
        return None
    return check


def _check_meanprice(omega0: float, noise_amp: float, horizon: float, name: str,
                     n_rows: int | None = None):
    def check(out: Path):
        """Criterion 5: log mean and log std within 0.01 of (log omega0, sqrt(2 D T))."""
        (terminal,) = _columns(out / name / "terminal.csv")
        logs = np.log(terminal)
        mean, std = float(np.mean(logs)), float(np.std(logs, ddof=1))
        target = (np.log(omega0), float(np.sqrt(2.0 * noise_amp * horizon)))
        if abs(mean - target[0]) >= 0.01 or abs(std - target[1]) >= 0.01:
            return f"log mean/std {mean:.4g}/{std:.4g}, expected {target[0]:.4g}/{target[1]:.4g}"
        if n_rows is not None:
            with open(out / name / "paths.csv", "rb") as handle:
                rows = sum(1 for _ in handle) - 1
            if rows != n_rows:
                return f"paths.csv holds {rows} rows, expected {n_rows}"
        return None
    return check


def sim_sweep(work: Path, rng: np.random.Generator, tiny: bool) -> list[Invocation]:
    horizon = 5.0 if tiny else 50.0
    invocations = []
    for bins in (101, 2001):
        name = f"kinetic-matched-{bins}"
        cfg = _write_config(work / f"{name}.cfg", {
            "seed": _seed(rng), "grid.min": 0.0, "grid.max": 2.0, "grid.points": bins,
            "kinetic.eta": 1.0, "kinetic.dt": 0.01, "kinetic.horizon": horizon,
            "kinetic.demand_rate": 100.0, "kinetic.supply_rate": 100.0,
            "kinetic.mu_ref": 1.0, "kinetic.sigma_ref": 0.2, "kinetic.shape": "matched",
            "kinetic.stationary_init": "true", "kinetic.jitter": 0.2,
        })
        invocations.append(Invocation(name, "simulate-kinetic", cfg,
                                      _check_kinetic_matched(1.0, name)))
    # From empty books; dt and horizon keep eta * stock * dt below the
    # stability bound for the whole run, not only at t = 0.
    name = "kinetic-monotone-401"
    cfg = _write_config(work / f"{name}.cfg", {
        "seed": _seed(rng), "grid.min": 0.0, "grid.max": 2.0, "grid.points": 401,
        "kinetic.eta": 1.0, "kinetic.dt": 0.005, "kinetic.horizon": horizon / 2.0,
        "kinetic.demand_rate": 100.0, "kinetic.supply_rate": 100.0,
        "kinetic.mu_ref": 1.0, "kinetic.sigma_ref": 0.2, "kinetic.shape": "monotone",
        "kinetic.x0": 0.0, "kinetic.z0": 0.0,
    })
    invocations.append(Invocation(name, "simulate-kinetic", cfg, _check_kinetic_monotone(
        np.linspace(0.0, 2.0, 401), 1.0, 0.2, name)))

    omega0 = round(float(rng.uniform(0.3, 0.6)), 6)
    n_paths = 1000 if tiny else 10_000
    name = "meanprice-terminal"
    cfg = _write_config(work / f"{name}.cfg", {
        "seed": _seed(rng), "sde.omega0": omega0, "sde.noise_amp": 0.01,
        "sde.dt": 0.001, "sde.horizon": 1.0, "sde.n_paths": n_paths,
    })
    invocations.append(Invocation(name, "simulate-meanprice", cfg,
                                  _check_meanprice(omega0, 0.01, 1.0, name)))
    name = "meanprice-paths"
    cfg = _write_config(work / f"{name}.cfg", {
        "seed": _seed(rng), "sde.omega0": omega0, "sde.noise_amp": 0.001,
        "sde.dt": 0.01, "sde.horizon": 1.0, "sde.n_paths": 500,
        "sde.store_paths": "true",
    })
    invocations.append(Invocation(name, "simulate-meanprice", cfg,
                                  _check_meanprice(omega0, 0.001, 1.0, name, 500 * 101)))
    return invocations


# ---------------------------------------------------------------------------
# closed-forms
# ---------------------------------------------------------------------------


def _lognormal_pdf(x, gamma, omega):
    return np.exp(-np.log(x / gamma) ** 2 / (2.0 * omega**2)) / (
        np.sqrt(2.0 * np.pi) * omega * x)


def _check_mixture_grids(coarse: str, fine: str, rel_tol: float):
    def check(out: Path):
        """The coarse and fine grids agree within rel_tol (of the peak) where they share nodes."""
        _, d_coarse = _columns(out / coarse / "density.csv")
        _, d_fine = _columns(out / fine / "density.csv")
        step = (d_fine.size - 1) // (d_coarse.size - 1)
        gap = float(np.max(np.abs(d_fine[::step] - d_coarse))) / float(np.max(d_fine))
        return None if gap <= rel_tol else f"{coarse} and {fine} differ by {gap:.3e} > {rel_tol}"
    return check


def _check_mixture_sharp(gamma: float, omega: float, name: str):
    def check(out: Path):
        """Criterion 7: the sharp-conditional limit lies within 1% of the lognormal."""
        price, density = _columns(out / name / "density.csv")
        target = _lognormal_pdf(price, gamma, omega)
        worst = float(np.max(np.abs(density - target) / target))
        return None if worst < 0.01 else f"sharp limit off the lognormal by {worst:.3%}"
    return check


def _check_fixed_point(tol: float, name: str):
    def check(out: Path):
        """Unit trapezoid mass within 1e-9, and the reported gap below tol."""
        price, density = _columns(out / name / "density.csv")
        mass = float(np.sum(0.5 * (density[1:] + density[:-1]) * np.diff(price)))
        gap = float(_keyvalues(out / name / "summary.txt")["gap"])
        if abs(mass - 1.0) > 1e-9 or not gap < tol:
            return f"mass {mass!r}, gap {gap!r} (tol {tol})"
        return None
    return check


def closed_forms(work: Path, rng: np.random.Generator, tiny: bool) -> list[Invocation]:
    gamma = round(float(rng.uniform(0.9, 1.1)), 6)
    omega = round(float(rng.uniform(0.25, 0.35)), 6)
    coarse, fine = ("mixture-41", "mixture-401") if tiny else ("mixture-401", "mixture-4001")
    invocations = []
    for name in (coarse, fine):
        cfg = _write_config(work / f"{name}.cfg", {
            "grid.min": 0.2, "grid.max": 3.0, "grid.points": int(name.split("-")[1]),
            "mixture.gamma": gamma, "mixture.omega": omega, "mixture.rel_tol": 1e-6,
        })
        check = _check_mixture_grids(coarse, fine, 1e-6) if name == fine else _no_check
        invocations.append(Invocation(name, "mixture", cfg, check))
    # Acceptance criterion 7's sharp-conditional limit.
    name = "mixture-sharp"
    cfg = _write_config(work / f"{name}.cfg", {
        "grid.min": 0.5, "grid.max": 2.0, "grid.points": 31,
        "mixture.gamma": 1.0, "mixture.omega": 0.245, "mixture.conditional_scale": 0.005,
        "mixture.n_nodes": 65537, "mixture.rel_tol": 1e-3,
    })
    invocations.append(Invocation(name, "mixture", cfg, _check_mixture_sharp(1.0, 0.245, name)))

    points = 401 if tiny else 4001
    name = "fixed-point-tol1e-2"
    cfg = _write_config(work / f"{name}.cfg", {
        "grid.min": 0.0, "grid.max": 2.0, "grid.points": points, "fixedpoint.tol": 0.01,
    })
    invocations.append(Invocation(name, "fixed-point", cfg, _check_fixed_point(0.01, name)))
    # The CLI defaults (tol 1e-3, max_iter 200): kept although the map does
    # not converge here, so the failure shows in fail_frac.
    name = "fixed-point-defaults"
    cfg = _write_config(work / f"{name}.cfg", {
        "grid.min": 0.0, "grid.max": 2.0, "grid.points": points,
    })
    invocations.append(Invocation(name, "fixed-point", cfg,
                                  _check_fixed_point(CLI_DEFAULT_FIXEDPOINT_TOL, name)))
    return invocations


# ---------------------------------------------------------------------------
# data-pipeline
# ---------------------------------------------------------------------------


#: Rows formatted at a time when writing inputs, to keep set-up memory small
#: next to the program's own peak.
_CHUNK = 50_000


def _write_transactions(path: Path, rng: np.random.Generator, goods: int, markets: int,
                        quarters: int, rows: int) -> None:
    """Transactions drawn from the paper's model.

    Each good has a lognormal base price; in each (good, market, quarter)
    group the relative price is a Laplace law above a floor of 1 whose scale
    equals its mean's gap over the floor, the gap being shifted lognormal.
    Draws below the floor are redrawn. Quantities are 1 to 10 units.
    """
    n_groups = goods * markets * quarters
    # At least three rows per group, so every group has a spread under
    # either the two- or the three-transaction rule for group_stds.csv.
    sizes = 3 + rng.multinomial(rows - 3 * n_groups, np.full(n_groups, 1.0 / n_groups))
    group = np.repeat(np.arange(n_groups), sizes)
    base = np.exp(rng.normal(0.0, 1.0, goods))
    gap = (0.02 + 0.1 * np.exp(0.25 * rng.standard_normal(n_groups)))[group]
    relative = rng.laplace(1.0 + gap, gap)
    low = relative <= 1.0
    while low.any():
        relative[low] = rng.laplace(1.0 + gap[low], gap[low])
        low = relative <= 1.0
    price = base[group // (markets * quarters)] * relative
    quantity = rng.integers(1, 11, rows)
    labels = [f"g{g:03d},m{m:02d},2011Q{q + 1}" for g in range(goods)
              for m in range(markets) for q in range(quarters)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("good_id,market_id,quarter,price,quantity\n")
        for start in range(0, rows, _CHUNK):
            chunk = slice(start, start + _CHUNK)
            handle.writelines(f"{labels[g]},{p!r},{q}\n" for g, p, q in zip(
                group[chunk].tolist(), price[chunk].tolist(), quantity[chunk].tolist()))


def _write_sample(path: Path, rng: np.random.Generator, sigma: float, rows: int) -> None:
    """Laplace(1, sigma) values with integer weights 1 to 5, drawn independently."""
    values = rng.laplace(1.0, sigma, rows)
    weights = rng.integers(1, 6, rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("value,weight\n")
        for start in range(0, rows, _CHUNK):
            chunk = slice(start, start + _CHUNK)
            handle.writelines(f"{v!r},{w}\n" for v, w in zip(
                values[chunk].tolist(), weights[chunk].tolist()))


def _check_normalized(rows: int, groups: int, name: str):
    def check(out: Path):
        """Row count preserved, expected group count, each group's weighted mean 1 within 1e-9."""
        sums: dict[str, list[float]] = {}
        count = 0
        with open(out / name / "normalized.csv", encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                key, value, weight = line.rsplit(",", 2)
                acc = sums.setdefault(key, [0.0, 0.0])
                acc[0] += float(value) * float(weight)
                acc[1] += float(weight)
                count += 1
        if count != rows:
            return f"{count} rows, expected {rows}"
        worst = max(abs(vw / w - 1.0) for vw, w in sums.values())
        if len(sums) != groups or worst > 1e-9:
            return f"{len(sums)} groups (expected {groups}), worst |mean - 1| = {worst:.3e}"
        return None
    return check


def _check_fit_count(groups: int, name: str):
    def check(out: Path):
        """One group spread per group: the fit's n equals the group count."""
        n = int(_keyvalues(out / name / "fit.txt")["n"])
        return None if n == groups else f"fit used n={n}, expected {groups}"
    return check


def _check_fit_laplace(sigma: float, name: str):
    def check(out: Path):
        """Criterion 6: the fitted scale within 2% of the generating sigma."""
        fitted = float(_keyvalues(out / name / "fit.txt")["sigma"])
        error = abs(fitted - sigma) / sigma
        return None if error < 0.02 else f"sigma {fitted:.5g} vs {sigma:.5g} ({error:.2%})"
    return check


def data_pipeline(work: Path, rng: np.random.Generator, tiny: bool) -> list[Invocation]:
    goods, markets, quarters = (20, 4, 2) if tiny else (200, 10, 4)
    rows = goods * markets * quarters * 25
    transactions = work / "transactions.csv"
    _write_transactions(transactions, rng, goods, markets, quarters, rows)
    sigma = round(float(rng.uniform(0.1, 0.2)), 6)
    sample = work / "sample.csv"
    _write_sample(sample, rng, sigma, 50_000 if tiny else 1_000_000)

    invocations = []
    for grouping, groups in (("good", goods), ("good+market+quarter", goods * markets * quarters)):
        name = f"normalize-{grouping.count('+') + 1}-level"
        cfg = _write_config(work / f"{name}.cfg", {
            "normalize.input": transactions, "normalize.grouping": grouping,
        })
        invocations.append(Invocation(name, "normalize", cfg,
                                      _check_normalized(rows, groups, name)))
    name = "fit-shifted-lognormal"
    cfg = _write_config(work / f"{name}.cfg", {
        "fit.input": work / OUT_DIR / invocations[-1].name / "group_stds.csv",
        "fit.family": "shifted-lognormal",
    })
    invocations.append(Invocation(name, "fit", cfg,
                                  _check_fit_count(goods * markets * quarters, name)))
    name = "fit-laplace"
    cfg = _write_config(work / f"{name}.cfg", {"fit.input": sample, "fit.family": "laplace"})
    invocations.append(Invocation(name, "fit", cfg, _check_fit_laplace(sigma, name)))
    return invocations


#: Workload name -> builder(work_dir, rng, tiny) -> invocations of one pass.
WORKLOADS = {
    "sim-sweep": sim_sweep,
    "closed-forms": closed_forms,
    "data-pipeline": data_pipeline,
}
