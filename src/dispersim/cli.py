"""Command-line orchestration: seeded runs, artifact files, run manifests.

Every subcommand reads one flat key-value config file, writes its artifact
tables into the output directory, and finishes with a ``manifest.txt``
echoing the effective configuration, seed, and package version, which is
enough to reproduce the run byte for byte. Files are written atomically
(temp file plus rename) so a crash never leaves a half-written artifact.

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
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{cell:.17g}" for cell in row))
    return "\n".join(lines) + "\n"


def _keyvalue(pairs) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def _write_manifest(out_dir: Path, command: str, seed: int, cfg: dict[str, str]) -> None:
    pairs = [("command", command), ("version", __version__), ("seed", seed)]
    pairs.extend((key, cfg[key]) for key in sorted(cfg) if key != "seed")
    atomic_write_text(out_dir / "manifest.txt", _keyvalue(pairs))


def _grid_from(cfg) -> np.ndarray:
    return uniform_grid(
        get_float(cfg, "grid.min"),
        get_float(cfg, "grid.max"),
        get_int(cfg, "grid.points"),
    )


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

_KINETIC_KEYS = {
    "seed", "grid.min", "grid.max", "grid.points",
    "kinetic.eta", "kinetic.dt", "kinetic.horizon",
    "kinetic.demand_rate", "kinetic.supply_rate",
    "kinetic.mu_ref", "kinetic.sigma_ref", "kinetic.shape", "kinetic.jitter",
    "kinetic.x0", "kinetic.z0", "kinetic.stationary_init",
}


def _cmd_simulate_kinetic(cfg, seed: int, out_dir: Path) -> None:
    require_known(cfg, _KINETIC_KEYS)
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
    atomic_write_text(out_dir / "sales_histogram.csv", result.sales_histogram.to_table())
    atomic_write_text(
        out_dir / "series.csv",
        _table(
            "time,x_total,z_total,sales_rate",
            zip(result.times, result.x_series, result.z_series,
                result.sales_rate_series),
        ),
    )
    atomic_write_text(
        out_dir / "summary.txt",
        _keyvalue([
            ("event_count", repr(result.event_count)),
            ("cap_hits", result.cap_hits),
        ]),
    )


_SDE_KEYS = {
    "seed", "sde.omega0", "sde.noise_amp",
    "sde.dt", "sde.horizon", "sde.n_paths", "sde.store_paths",
}


def _cmd_simulate_meanprice(cfg, seed: int, out_dir: Path) -> None:
    require_known(cfg, _SDE_KEYS)
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
    atomic_write_text(
        out_dir / "terminal.csv",
        "omega\n" + "".join(f"{float(w)!r}\n" for w in result.terminal),
    )
    if store_paths:
        times = params.dt * np.arange(params.n_steps + 1)
        rows = []
        for i in range(params.n_paths):
            for t, w in zip(times, result.paths[i]):
                rows.append(f"{i},{float(t)!r},{float(w)!r}\n")
        atomic_write_text(out_dir / "paths.csv", "path_id,time,omega\n" + "".join(rows))
    atomic_write_text(
        out_dir / "summary.txt",
        _keyvalue([
            ("log_mean", repr(result.log_mean)),
            ("log_std", repr(result.log_std)),
            ("n_paths", params.n_paths),
        ]),
    )


_FIXEDPOINT_KEYS = {
    "seed", "grid.min", "grid.max", "grid.points",
    "fixedpoint.tol", "fixedpoint.max_iter",
    "fixedpoint.init", "fixedpoint.init_mu", "fixedpoint.init_sigma",
}


def _cmd_fixed_point(cfg, seed: int, out_dir: Path) -> None:
    require_known(cfg, _FIXEDPOINT_KEYS)
    grid = _grid_from(cfg)
    init_kind = get_str(cfg, "fixedpoint.init", "uniform", choices=("uniform", "laplace"))
    if init_kind == "laplace":
        init = laplace_density(grid, LaplaceParams(
            mu=get_float(cfg, "fixedpoint.init_mu"),
            sigma=get_float(cfg, "fixedpoint.init_sigma"),
        ))
    else:
        init = None
    result = fixed_point_solve(
        grid, init,
        tol=get_float(cfg, "fixedpoint.tol", 1e-3),
        max_iter=get_int(cfg, "fixedpoint.max_iter", 200),
    )
    atomic_write_text(out_dir / "density.csv", result.distribution.to_table())
    atomic_write_text(
        out_dir / "summary.txt",
        _keyvalue([
            ("iterations", result.n_iterations),
            ("gap", repr(result.gap)),
        ]),
    )


_MIXTURE_KEYS = {
    "seed", "grid.min", "grid.max", "grid.points",
    "mixture.gamma", "mixture.omega", "mixture.shift", "mixture.floor",
    "mixture.conditional_scale", "mixture.n_nodes", "mixture.rel_tol",
}


def _cmd_mixture(cfg, seed: int, out_dir: Path) -> None:
    require_known(cfg, _MIXTURE_KEYS)
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
    atomic_write_text(out_dir / "density.csv", _table("price,density", zip(grid, density)))


_FIT_KEYS = {
    "seed", "fit.input", "fit.family",
    "fit.shift_lo", "fit.shift_hi",
    "fit.grid_min", "fit.grid_max", "fit.grid_points",
}


def _cmd_fit(cfg, seed: int, out_dir: Path) -> None:
    require_known(cfg, _FIT_KEYS)
    sample = load_sample(get_str(cfg, "fit.input"))
    family = get_str(
        cfg, "fit.family", choices=(FAMILY_LAPLACE, FAMILY_SHIFTED_LOGNORMAL)
    )
    if family == FAMILY_LAPLACE:
        if "fit.shift_lo" in cfg or "fit.shift_hi" in cfg:
            raise ConfigError("shift bounds only apply to the shifted-lognormal family")
        result = fit_laplace(sample)
        fitted = lambda grid: laplace_density(grid, result.params)
    else:
        has_lo, has_hi = "fit.shift_lo" in cfg, "fit.shift_hi" in cfg
        if has_lo != has_hi:
            raise ConfigError("fit.shift_lo and fit.shift_hi must be given together")
        bounds = (
            (get_float(cfg, "fit.shift_lo"), get_float(cfg, "fit.shift_hi"))
            if has_lo else None
        )
        result = fit_shifted_lognormal(sample, shift_bounds=bounds)
        fitted = lambda grid: lognormal_density(grid, result.params)
    atomic_write_text(out_dir / "fit.txt", _keyvalue(result.to_record().items()))
    grid = uniform_grid(
        get_float(cfg, "fit.grid_min", float(sample.values.min())),
        get_float(cfg, "fit.grid_max", float(sample.values.max())),
        get_int(cfg, "fit.grid_points", 201),
    )
    empirical, _ = histogram(sample, grid)
    atomic_write_text(
        out_dir / "series.csv",
        _table(
            "price,empirical_density,fitted_density",
            zip(grid, empirical.density, fitted(grid)),
        ),
    )


_NORMALIZE_KEYS = {"seed", "normalize.input", "normalize.grouping", "normalize.weighted"}


def _cmd_normalize(cfg, seed: int, out_dir: Path) -> None:
    require_known(cfg, _NORMALIZE_KEYS)
    table = load_transactions(get_str(cfg, "normalize.input"))
    groups = normalize_prices(
        table,
        grouping=get_str(cfg, "normalize.grouping", "good", choices=GROUPINGS),
        weighted=get_bool(cfg, "normalize.weighted", True),
    )
    atomic_write_text(out_dir / "normalized.csv", write_normalized_samples(groups))
    stds, skipped = group_std_devs(groups)
    atomic_write_text(
        out_dir / "group_stds.csv",
        "value\n" + "".join(f"{float(v)!r}\n" for v in stds.values),
    )
    atomic_write_text(
        out_dir / "summary.txt",
        _keyvalue([
            ("transactions", table.size),
            ("groups", len(groups)),
            ("skipped_groups", skipped),
        ]),
    )


_HANDLERS = {
    "simulate-kinetic": _cmd_simulate_kinetic,
    "simulate-meanprice": _cmd_simulate_meanprice,
    "fixed-point": _cmd_fixed_point,
    "mixture": _cmd_mixture,
    "fit": _cmd_fit,
    "normalize": _cmd_normalize,
}

_HELP = {
    "simulate-kinetic": "run the per-bin matching simulator and export its sales law",
    "simulate-meanprice": "simulate the multiplicative mean-price ensemble",
    "fixed-point": "solve the stationary sales law by fixed-point iteration",
    "mixture": "evaluate the lognormal mixture of conditional price laws",
    "fit": "fit a price law to a sample file and export the comparison series",
    "normalize": "normalize transaction prices by group means and pool spreads",
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
    for name, handler in _HANDLERS.items():
        sub = subparsers.add_parser(name, help=_HELP[name])
        sub.add_argument("config", help="flat key-value config file")
        sub.add_argument("--out", default="out", help="output directory (default: out)")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else get_int(cfg, "seed", 0)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        args.handler(cfg, seed, out_dir)
        _write_manifest(out_dir, args.command, seed, cfg)
    except InputError as exc:
        print(f"dispersim: error: {exc}", file=sys.stderr)
        return 1
    except ModelError as exc:
        print(f"dispersim: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"dispersim: error: {exc}", file=sys.stderr)
        return 1
    return 0
