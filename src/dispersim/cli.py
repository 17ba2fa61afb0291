"""Command-line orchestration: artifact files and run manifests.

Every subcommand reads one flat key-value config file and returns its
artifact tables as text. Before it loads an input file or calls into the
model, a subcommand refuses every config key that it did not read, such as
a typo or an option that the chosen mode ignores. Only the two simulators
draw random numbers, so only they read the ``seed`` key (``--seed`` sets
it). ``main`` adds a ``manifest.txt`` echoing the package version and the
config keys as given, enough to reproduce the run byte for byte, and the
artifacts the run wrote. Only then does it create the output directory,
write the artifacts into it, each atomically (temp file plus rename), and
remove the files that the previous manifest there listed and this run did
not rewrite. A run that exits 1 or 2 therefore creates, writes and removes
nothing; only a failing write or removal can leave part of a run's files
behind.

Exit codes: 0 on success, 1 when the input or configuration is unusable,
2 when the model or its numerics refuse the run.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    get_bool,
    get_float,
    get_int,
    get_str,
    load_config,
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
    STABILITY_BOUND,
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
    """Write ``text`` to ``path`` via a temp file in the same directory.

    The temp file is created with mode ``0o666`` less the umask, as ``open``
    would create ``path`` itself, so the artifact gets the umask's default
    mode (``tempfile.mkstemp`` would make it owner-only). Its name carries
    64 random bits, and ``O_EXCL`` refuses to reuse an existing file.

    The text is written in one call, which may hold one encoded copy of
    it. Writing it in slices would lower no peak: the join or ``%`` that
    built each artifact's text already held at least twice its size while
    the caller's inputs were still alive.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _floats(values) -> list[float]:
    # Python floats format to the same bytes as numpy's float64 scalars,
    # without boxing one scalar per cell.
    return np.asarray(values, dtype=float).tolist()


def _table(header: str, *columns) -> str:
    """Delimiter-separated table with 17-significant-digit numeric cells.

    The cells are formatted in one ``%`` call on a format string of one
    line a row, filled from the row-major cells.
    """
    cells = np.stack(columns, axis=1, dtype=float)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return header + "\n" + (line * len(cells)) % tuple(cells.ravel().tolist())


def _column(header: str, values) -> str:
    """One-column table of shortest round-tripping floats."""
    return "\n".join([header, *map(repr, _floats(values)), ""])


def _keyvalue(pairs) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def _manifest(command: str, cfg: dict[str, str], artifacts) -> str:
    return _keyvalue([("command", command), ("version", __version__),
                      ("artifacts", " ".join(sorted(artifacts))), *sorted(cfg.items())])


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


def _given(**options) -> dict:
    """The options whose config keys were set; the library's defaults fill the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _grid_from(cfg) -> np.ndarray:
    return uniform_grid(
        get_float(cfg, "grid.min"),
        get_float(cfg, "grid.max"),
        get_int(cfg, "grid.points"),
    )


# ---------------------------------------------------------------------------
# Subcommand handlers: cfg -> {artifact file name: text}
# ---------------------------------------------------------------------------


def _simulate_kinetic(cfg) -> dict[str, str]:
    grid = _grid_from(cfg)
    inflow = InflowSpec(
        demand_rate=get_float(cfg, "kinetic.demand_rate"),
        supply_rate=get_float(cfg, "kinetic.supply_rate"),
        mu_ref=get_float(cfg, "kinetic.mu_ref"),
        sigma_ref=get_float(cfg, "kinetic.sigma_ref"),
        **_given(shape=get_str(cfg, "kinetic.shape", None, choices=INFLOW_SHAPES),
                 jitter=get_float(cfg, "kinetic.jitter", None)),
    )
    eta = get_float(cfg, "kinetic.eta")
    stationary = get_bool(cfg, "kinetic.stationary_init", False)
    totals = {} if stationary else _given(x_total=get_float(cfg, "kinetic.x0", None),
                                          z_total=get_float(cfg, "kinetic.z0", None))
    dt = get_float(cfg, "kinetic.dt")
    horizon = get_float(cfg, "kinetic.horizon")
    # read without jitter too: the seed then draws nothing, but is no typo
    options = _given(seed=get_int(cfg, "seed", None))
    cfg.refuse_unread()
    state = (stationary_state(grid, eta, inflow) if stationary
             else initial_state(grid, eta, inflow, **totals))
    result = run(state, inflow, dt=dt, horizon=horizon, **options)
    sales = result.sales_histogram
    return {
        "sales_histogram.csv": _table("price,density", sales.grid, sales.density),
        "series.csv": _table(
            "time,x_total,z_total,sales_rate",
            result.times, result.x_series, result.z_series, result.sales_rate_series,
        ),
        "summary.txt": _keyvalue([
            ("event_count", repr(result.event_count)),
            ("cap_hits", result.cap_hits),
        ]),
        "diagnostics.txt": _keyvalue([
            ("worst_depletion", repr(result.worst_depletion)),
            ("stability_bound", repr(STABILITY_BOUND)),
        ]),
    }


def _simulate_meanprice(cfg) -> dict[str, str]:
    params = SdeParams(
        omega0=get_float(cfg, "sde.omega0"),
        noise_amp=get_float(cfg, "sde.noise_amp"),
        dt=get_float(cfg, "sde.dt"),
        horizon=get_float(cfg, "sde.horizon"),
        n_paths=get_int(cfg, "sde.n_paths"),
        **_given(seed=get_int(cfg, "seed", None)),
    )
    store_paths = get_bool(cfg, "sde.store_paths", False)
    cfg.refuse_unread()
    result = simulate_mean_price(params, store_paths=store_paths)
    artifacts = {"terminal.csv": _column("omega", result.terminal)}
    if store_paths:
        # one path row at a time through tolist(): the whole array at once
        # would hold every omega as a Python float until the text is built
        times = (params.dt * np.arange(params.n_steps + 1)).tolist()
        template = "".join(f"{{id}},{t!r},%r\n" for t in times)
        rows = [template.replace("{id}", str(i)) % tuple(path.tolist())
                for i, path in enumerate(result.paths)]
        artifacts["paths.csv"] = "".join(["path_id,time,omega\n", *rows])
    artifacts["summary.txt"] = _keyvalue([
        ("log_mean", repr(result.log_mean)),
        ("log_std", repr(result.log_std)),
        ("n_paths", params.n_paths),
    ])
    return artifacts


def _fixed_point(cfg) -> dict[str, str]:
    grid = _grid_from(cfg)
    init = None
    if get_str(cfg, "fixedpoint.init", "uniform", choices=("uniform", "laplace")) == "laplace":
        init = laplace_density(grid, LaplaceParams(
            mu=get_float(cfg, "fixedpoint.init_mu"),
            sigma=get_float(cfg, "fixedpoint.init_sigma"),
        ))
    options = _given(tol=get_float(cfg, "fixedpoint.tol", None),
                     max_iter=get_int(cfg, "fixedpoint.max_iter", None))
    cfg.refuse_unread()
    result = fixed_point_solve(grid, init, **options)
    law = result.distribution
    return {
        "density.csv": _table("price,density", law.grid, law.density),
        "summary.txt": _keyvalue([
            ("iterations", result.n_iterations),
            ("gap", repr(result.gap)),
        ]),
    }


def _mixture(cfg) -> dict[str, str]:
    grid = _grid_from(cfg)
    law = LognormalParams(
        gamma=get_float(cfg, "mixture.gamma"),
        omega=get_float(cfg, "mixture.omega"),
        **_given(shift=get_float(cfg, "mixture.shift", None)),
    )
    options = _given(
        floor=get_float(cfg, "mixture.floor", None),
        conditional_scale=get_float(cfg, "mixture.conditional_scale", None),
        n_nodes=get_int(cfg, "mixture.n_nodes", None),
        rel_tol=get_float(cfg, "mixture.rel_tol", None),
    )
    cfg.refuse_unread()
    density = mixture_density(grid, law, **options)
    return {"density.csv": _table("price,density", grid, density)}


def _fit(cfg) -> dict[str, str]:
    family = get_str(
        cfg, "fit.family", choices=(FAMILY_LAPLACE, FAMILY_SHIFTED_LOGNORMAL)
    )
    bounds = None
    if family == FAMILY_SHIFTED_LOGNORMAL:
        lo, hi = get_float(cfg, "fit.shift_lo", None), get_float(cfg, "fit.shift_hi", None)
        if (lo is None) != (hi is None):
            raise ConfigError("fit.shift_lo and fit.shift_hi must be given together")
        bounds = None if lo is None else (lo, hi)
    path = get_str(cfg, "fit.input")
    grid_min = get_float(cfg, "fit.grid_min", None)
    grid_max = get_float(cfg, "fit.grid_max", None)
    grid_points = get_int(cfg, "fit.grid_points", 201)
    cfg.refuse_unread()
    sample = load_sample(path)
    # fit first: a sample too degenerate to fit, such as one whose values all
    # coincide, is the model's refusal, not an empty default grid
    if family == FAMILY_LAPLACE:
        result, density = fit_laplace(sample), laplace_density
    else:
        result, density = fit_shifted_lognormal(sample, shift_bounds=bounds), lognormal_density
    grid = uniform_grid(
        float(sample.values.min()) if grid_min is None else grid_min,
        float(sample.values.max()) if grid_max is None else grid_max,
        grid_points,
    )
    empirical, _ = histogram(sample, grid)
    return {
        "fit.txt": _keyvalue(result.to_record().items()),
        "series.csv": _table(
            "price,empirical_density,fitted_density",
            grid, empirical.density, density(grid, result.params),
        ),
    }


def _normalize(cfg) -> dict[str, str]:
    path = get_str(cfg, "normalize.input")
    options = _given(grouping=get_str(cfg, "normalize.grouping", None, choices=GROUPINGS),
                     weighted=get_bool(cfg, "normalize.weighted", None))
    cfg.refuse_unread()
    table = load_transactions(path)
    groups = normalize_prices(table, **options)
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


#: name -> (handler, help line). The help lines live here, not in
#: docstrings, which ``python -OO`` strips.
_COMMANDS = {
    "simulate-kinetic": (
        _simulate_kinetic, "run the per-bin matching simulator and export its sales law"),
    "simulate-meanprice": (
        _simulate_meanprice, "simulate the multiplicative mean-price ensemble"),
    "fixed-point": (
        _fixed_point, "solve the stationary sales law by fixed-point iteration"),
    "mixture": (
        _mixture, "evaluate the lognormal mixture of conditional price laws"),
    "fit": (
        _fit, "fit a price law to a sample file and export the comparison series"),
    "normalize": (
        _normalize, "normalize transaction prices by group means and pool spreads"),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process.

    Parsing leaves the tree as it was, and argparse reads the terminal width
    when it formats help or usage, not when it builds, so one tree serves
    every call.
    """
    parser = _Parser(
        prog="dispersim",
        description="Kinetic market simulation and estimation toolkit "
                    "for the price dispersion of homogeneous goods.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_line) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_line)
        sub.add_argument("config", help="flat key-value config file")
        sub.add_argument("--out", default="out", help="output directory (default: out)")
        sub.add_argument("--seed", type=int, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        artifacts = handler(cfg)
        artifacts["manifest.txt"] = _manifest(args.command, cfg, artifacts)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
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
