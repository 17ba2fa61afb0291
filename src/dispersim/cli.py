"""Command-line orchestration: seeded runs, artifact files, run manifests.

Every subcommand reads one flat key-value config file and returns its
artifact tables as text. ``main`` adds a ``manifest.txt`` echoing the
effective configuration, seed, and package version, which is enough to
reproduce the run byte for byte, and listing the artifacts the run wrote.
Only then does it write the artifacts into the output directory, each
atomically (temp file plus rename), and remove the files that the previous
manifest there listed and this run did not rewrite. A run that exits 1 or
2 therefore writes and removes nothing and leaves the output directory as
it was; only a failing write or removal can leave part of a run's files
behind.

Exit codes: 0 on success, 1 when the input or configuration is unusable,
2 when the model or its numerics refuse the run.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    get_bool,
    get_float,
    get_int,
    get_str,
    load_config,
    require_known,
)
from .dataio import (
    GROUPINGS,
    group_std_devs,
    load_sample,
    load_transactions,
    normalize_prices,
    write_normalized_samples,
)
from .errors import ConfigError, InputError, ModelError
from .estimate import (
    FAMILY_LAPLACE,
    FAMILY_SHIFTED_LOGNORMAL,
    fit_laplace,
    fit_shifted_lognormal,
    histogram,
)
from .fixedpoint import fixed_point_solve
from .grids import uniform_grid
from .kinetic import (
    INFLOW_SHAPES,
    InflowSpec,
    initial_state,
    run,
    stationary_state,
)
from .laws import (
    LaplaceParams,
    LognormalParams,
    laplace_density,
    lognormal_density,
    mixture_density,
)
from .meanprice import SdeParams, simulate_mean_price


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _table(header: str, rows) -> str:
    """Delimiter-separated table with 17-significant-digit numeric cells."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    return header + "\n" + "".join(line % row for row in rows)


def _column(header: str, values) -> str:
    """One-column table of shortest round-tripping floats."""
    return header + "\n" + "".join(f"{float(v)!r}\n" for v in values)


def _keyvalue(pairs) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def _manifest(command: str, seed: int, cfg: dict[str, str], artifacts) -> str:
    pairs = [("command", command), ("version", __version__), ("seed", seed),
             ("artifacts", " ".join(sorted(artifacts)))]
    pairs.extend((key, cfg[key]) for key in sorted(cfg) if key != "seed")
    return _keyvalue(pairs)


def _listed_artifacts(manifest: Path) -> set[str]:
    """File names on the ``artifacts`` line of an earlier run's manifest.

    Only bare names count, so that no manifest can point at a file outside
    its directory.
    """
    if not manifest.exists():
        return set()
    for line in manifest.read_text(encoding="utf-8", errors="replace").splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "artifacts":
            return {name for name in value.split() if name == Path(name).name}
    return set()


def _grid_from(cfg) -> np.ndarray:
    return uniform_grid(
        get_float(cfg, "grid.min"),
        get_float(cfg, "grid.max"),
        get_int(cfg, "grid.points"),
    )


def _refuse_unused(cfg, keys, reason: str) -> None:
    """Reject keys that the run would otherwise accept and then ignore."""
    given = [key for key in keys if key in cfg]
    if given:
        raise ConfigError(f"unused config keys {', '.join(given)}: {reason}")


# ---------------------------------------------------------------------------
# Subcommand handlers: (cfg, seed) -> {artifact file name: text}
# ---------------------------------------------------------------------------


def _simulate_kinetic(cfg, seed: int) -> dict[str, str]:
    grid = _grid_from(cfg)
    inflow = InflowSpec(
        demand_rate=get_float(cfg, "kinetic.demand_rate"),
        supply_rate=get_float(cfg, "kinetic.supply_rate"),
        mu_ref=get_float(cfg, "kinetic.mu_ref"),
        sigma_ref=get_float(cfg, "kinetic.sigma_ref"),
        shape=get_str(cfg, "kinetic.shape", "monotone", choices=INFLOW_SHAPES),
        jitter=get_float(cfg, "kinetic.jitter", 0.0),
    )
    eta = get_float(cfg, "kinetic.eta")
    if get_bool(cfg, "kinetic.stationary_init", False):
        _refuse_unused(cfg, ("kinetic.x0", "kinetic.z0"),
                       "initial totals only apply without kinetic.stationary_init")
        state = stationary_state(grid, eta, inflow)
    else:
        state = initial_state(
            grid, eta, inflow,
            x_total=get_float(cfg, "kinetic.x0", 0.0),
            z_total=get_float(cfg, "kinetic.z0", 0.0),
        )
    result = run(
        state, inflow,
        dt=get_float(cfg, "kinetic.dt"),
        horizon=get_float(cfg, "kinetic.horizon"),
        seed=seed,
    )
    sales = result.sales_histogram
    return {
        "sales_histogram.csv": _table("price,density", zip(sales.grid, sales.density)),
        "series.csv": _table(
            "time,x_total,z_total,sales_rate",
            zip(result.times, result.x_series, result.z_series,
                result.sales_rate_series),
        ),
        "summary.txt": _keyvalue([
            ("event_count", repr(result.event_count)),
            ("cap_hits", result.cap_hits),
        ]),
    }


def _simulate_meanprice(cfg, seed: int) -> dict[str, str]:
    params = SdeParams(
        omega0=get_float(cfg, "sde.omega0"),
        noise_amp=get_float(cfg, "sde.noise_amp"),
        dt=get_float(cfg, "sde.dt"),
        horizon=get_float(cfg, "sde.horizon"),
        n_paths=get_int(cfg, "sde.n_paths"),
        seed=seed,
    )
    store_paths = get_bool(cfg, "sde.store_paths", False)
    result = simulate_mean_price(params, store_paths=store_paths)
    artifacts = {"terminal.csv": _column("omega", result.terminal)}
    if store_paths:
        times = [repr(t) for t in (params.dt * np.arange(params.n_steps + 1)).tolist()]
        rows = []
        for i, path in enumerate(result.paths):
            rows.extend(f"{i},{t},{w!r}\n" for t, w in zip(times, path.tolist()))
        artifacts["paths.csv"] = "path_id,time,omega\n" + "".join(rows)
    artifacts["summary.txt"] = _keyvalue([
        ("log_mean", repr(result.log_mean)),
        ("log_std", repr(result.log_std)),
        ("n_paths", params.n_paths),
    ])
    return artifacts


def _fixed_point(cfg, seed: int) -> dict[str, str]:
    grid = _grid_from(cfg)
    init_kind = get_str(cfg, "fixedpoint.init", "uniform", choices=("uniform", "laplace"))
    if init_kind == "laplace":
        init = laplace_density(grid, LaplaceParams(
            mu=get_float(cfg, "fixedpoint.init_mu"),
            sigma=get_float(cfg, "fixedpoint.init_sigma"),
        ))
    else:
        _refuse_unused(cfg, ("fixedpoint.init_mu", "fixedpoint.init_sigma"),
                       "the initial law's parameters need fixedpoint.init = laplace")
        init = None
    result = fixed_point_solve(
        grid, init,
        tol=get_float(cfg, "fixedpoint.tol", 1e-3),
        max_iter=get_int(cfg, "fixedpoint.max_iter", 200),
    )
    law = result.distribution
    return {
        "density.csv": _table("price,density", zip(law.grid, law.density)),
        "summary.txt": _keyvalue([
            ("iterations", result.n_iterations),
            ("gap", repr(result.gap)),
        ]),
    }


def _mixture(cfg, seed: int) -> dict[str, str]:
    grid = _grid_from(cfg)
    law = LognormalParams(
        gamma=get_float(cfg, "mixture.gamma"),
        omega=get_float(cfg, "mixture.omega"),
        shift=get_float(cfg, "mixture.shift", 0.0),
    )
    density = mixture_density(
        grid, law,
        floor=get_float(cfg, "mixture.floor", 0.0),
        conditional_scale=get_float(cfg, "mixture.conditional_scale", 1.0),
        n_nodes=get_int(cfg, "mixture.n_nodes", 4097),
        rel_tol=get_float(cfg, "mixture.rel_tol", 1e-6),
    )
    return {"density.csv": _table("price,density", zip(grid, density))}


def _fit(cfg, seed: int) -> dict[str, str]:
    family = get_str(
        cfg, "fit.family", choices=(FAMILY_LAPLACE, FAMILY_SHIFTED_LOGNORMAL)
    )
    has_lo, has_hi = "fit.shift_lo" in cfg, "fit.shift_hi" in cfg
    if family == FAMILY_LAPLACE:
        _refuse_unused(cfg, ("fit.shift_lo", "fit.shift_hi"),
                       "shift bounds only apply to the shifted-lognormal family")
    elif has_lo != has_hi:
        raise ConfigError("fit.shift_lo and fit.shift_hi must be given together")
    bounds = (
        (get_float(cfg, "fit.shift_lo"), get_float(cfg, "fit.shift_hi"))
        if has_lo else None
    )
    sample = load_sample(get_str(cfg, "fit.input"))
    grid = uniform_grid(
        get_float(cfg, "fit.grid_min", float(sample.values.min())),
        get_float(cfg, "fit.grid_max", float(sample.values.max())),
        get_int(cfg, "fit.grid_points", 201),
    )
    empirical, _ = histogram(sample, grid)
    if family == FAMILY_LAPLACE:
        result = fit_laplace(sample)
        fitted = laplace_density(grid, result.params)
    else:
        result = fit_shifted_lognormal(sample, shift_bounds=bounds)
        fitted = lognormal_density(grid, result.params)
    return {
        "fit.txt": _keyvalue(result.to_record().items()),
        "series.csv": _table(
            "price,empirical_density,fitted_density",
            zip(grid, empirical.density, fitted),
        ),
    }


def _normalize(cfg, seed: int) -> dict[str, str]:
    path = get_str(cfg, "normalize.input")
    grouping = get_str(cfg, "normalize.grouping", "good", choices=GROUPINGS)
    weighted = get_bool(cfg, "normalize.weighted", True)
    table = load_transactions(path)
    groups = normalize_prices(table, grouping=grouping, weighted=weighted)
    stds, skipped = group_std_devs(groups)
    return {
        "normalized.csv": write_normalized_samples(groups),
        "group_stds.csv": _column("value", stds.values),
        "summary.txt": _keyvalue([
            ("transactions", table.size),
            ("groups", len(groups)),
            ("skipped_groups", skipped),
        ]),
    }


_GRID_KEYS = ("grid.min", "grid.max", "grid.points")

#: name -> (handler, config keys it reads besides ``seed``, help line). The
#: help lines live here, not in docstrings, which ``python -OO`` strips.
_COMMANDS = {
    "simulate-kinetic": (_simulate_kinetic, {
        *_GRID_KEYS, "kinetic.eta", "kinetic.dt", "kinetic.horizon",
        "kinetic.demand_rate", "kinetic.supply_rate",
        "kinetic.mu_ref", "kinetic.sigma_ref", "kinetic.shape", "kinetic.jitter",
        "kinetic.x0", "kinetic.z0", "kinetic.stationary_init",
    }, "run the per-bin matching simulator and export its sales law"),
    "simulate-meanprice": (_simulate_meanprice, {
        "sde.omega0", "sde.noise_amp",
        "sde.dt", "sde.horizon", "sde.n_paths", "sde.store_paths",
    }, "simulate the multiplicative mean-price ensemble"),
    "fixed-point": (_fixed_point, {
        *_GRID_KEYS, "fixedpoint.tol", "fixedpoint.max_iter",
        "fixedpoint.init", "fixedpoint.init_mu", "fixedpoint.init_sigma",
    }, "solve the stationary sales law by fixed-point iteration"),
    "mixture": (_mixture, {
        *_GRID_KEYS,
        "mixture.gamma", "mixture.omega", "mixture.shift", "mixture.floor",
        "mixture.conditional_scale", "mixture.n_nodes", "mixture.rel_tol",
    }, "evaluate the lognormal mixture of conditional price laws"),
    "fit": (_fit, {
        "fit.input", "fit.family", "fit.shift_lo", "fit.shift_hi",
        "fit.grid_min", "fit.grid_max", "fit.grid_points",
    }, "fit a price law to a sample file and export the comparison series"),
    "normalize": (_normalize, {
        "normalize.input", "normalize.grouping", "normalize.weighted",
    }, "normalize transaction prices by group means and pool spreads"),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dispersim",
        description="Kinetic market simulation and estimation toolkit "
                    "for the price dispersion of homogeneous goods.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, _, help_line) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_line)
        sub.add_argument("config", help="flat key-value config file")
        sub.add_argument("--out", default="out", help="output directory (default: out)")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, known, _ = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        require_known(cfg, {"seed", *known})
        seed = args.seed if args.seed is not None else get_int(cfg, "seed", 0)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts = handler(cfg, seed)
        artifacts["manifest.txt"] = _manifest(args.command, seed, cfg, artifacts)
        stale = _listed_artifacts(out_dir / "manifest.txt") - artifacts.keys()
        for name, text in artifacts.items():
            atomic_write_text(out_dir / name, text)
        for name in stale:
            if (out_dir / name).is_file():
                (out_dir / name).unlink()
    except (InputError, ModelError, OSError, ValueError) as exc:
        print(f"dispersim: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ModelError) else 1
    return 0
