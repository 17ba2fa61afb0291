"""End-to-end tests of the command-line interface.

Each test writes a config file into a temp directory, invokes ``main``
directly, and inspects the artifact files. Manifests and summaries are in
the same flat key-value format as the configs, so they are parsed with the
config parser.
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dispersim import __version__
from dispersim.cli import _column, _parser, _table, atomic_write_text, main
from dispersim.config import parse_config
from dispersim.dataio import load_sample, normalize_prices, write_sample
from dispersim.errors import NonConvergence
from dispersim.estimate import fit_laplace, histogram
from dispersim.fixedpoint import fixed_point_solve
from dispersim.grids import uniform_grid
from dispersim.kinetic import InflowSpec, initial_state, run, stationary_state
from dispersim.laws import LognormalParams, laplace_density, mixture_density
from dispersim.meanprice import SdeParams, simulate_mean_price
from dispersim.samples import Sample

SRC = Path(__file__).resolve().parents[1] / "src"

FIXED_POINT_CFG = """\
grid.min = 0
grid.max = 2
grid.points = 201
fixedpoint.tol = 1e-2
"""

KINETIC_CFG = """\
grid.min = 0
grid.max = 2
grid.points = 101
kinetic.eta = 1.0
kinetic.dt = 0.01
kinetic.horizon = 2.0
kinetic.demand_rate = 100
kinetic.supply_rate = 100
kinetic.mu_ref = 1.0
kinetic.sigma_ref = 0.2
kinetic.shape = matched
kinetic.stationary_init = yes
"""

# Monotone inflows from empty books with uneven rates: the books pile up
# until eta * stock * dt reaches 9.8, with 24 213 capped bin-steps.
FLOODED_KINETIC_CFG = """\
grid.min = 0
grid.max = 2
grid.points = 101
kinetic.eta = 1.0
kinetic.dt = 0.05
kinetic.horizon = 20
kinetic.demand_rate = 500
kinetic.supply_rate = 100
kinetic.mu_ref = 1.0
kinetic.sigma_ref = 0.2
kinetic.shape = monotone
"""

# Prices 1000 reference scales above mu_ref: both inflow shapes underflow to 0.
VANISHING_INFLOW_CFG = (KINETIC_CFG.replace("grid.min = 0", "grid.min = 1")
                        .replace("kinetic.mu_ref = 1.0", "kinetic.mu_ref = 0.0")
                        .replace("kinetic.sigma_ref = 0.2", "kinetic.sigma_ref = 0.001"))

SDE_CFG = """\
seed = 3
sde.omega0 = 0.41
sde.noise_amp = 0.03
sde.dt = 0.25
sde.horizon = 1.0
sde.n_paths = 4
sde.store_paths = true
"""

MIXTURE_CFG = """\
grid.min = 0.2
grid.max = 3.0
grid.points = 12
mixture.gamma = 1.0
mixture.omega = 0.3
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _run(tmp_path, command, cfg_text, out_name="out", extra=()):
    cfg = _write(tmp_path, f"{command}.cfg", cfg_text)
    out = tmp_path / out_name
    code = main([command, str(cfg), "--out", str(out), *extra])
    return code, out


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_fixed_point_command_writes_artifacts(tmp_path):
    code, out = _run(tmp_path, "fixed-point", FIXED_POINT_CFG)
    assert code == 0
    density_lines = (out / "density.csv").read_text().strip().split("\n")
    assert density_lines[0] == "price,density"
    assert len(density_lines) == 202
    summary = parse_config((out / "summary.txt").read_text())
    assert int(summary["iterations"]) <= 200
    assert float(summary["gap"]) < 1e-2


def test_density_table_round_trips_the_library_floats_exactly(tmp_path):
    code, out = _run(tmp_path, "fixed-point", FIXED_POINT_CFG)
    assert code == 0
    law = fixed_point_solve(uniform_grid(0.0, 2.0, 201), None, tol=1e-2).distribution
    lines = (out / "density.csv").read_text().strip().splitlines()
    assert lines[0] == "price,density"
    assert len(lines) == 1 + law.grid.size
    for line, price, density in zip(lines[1:], law.grid, law.density):
        p, d = line.split(",")
        assert float(p) == price
        assert float(d) == density


def test_manifest_reproduces_the_effective_run(tmp_path):
    code, out = _run(tmp_path, "fixed-point", FIXED_POINT_CFG)
    assert code == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert lines[0] == "command = fixed-point"
    assert lines[1] == f"version = {__version__}"
    assert lines[2] == "artifacts = density.csv summary.txt"
    # config keys echoed sorted, as given
    assert lines[3:] == [
        "fixedpoint.tol = 1e-2",
        "grid.max = 2",
        "grid.min = 0",
        "grid.points = 201",
    ]


def test_rerunning_a_config_is_byte_identical(tmp_path):
    code_a, out_a = _run(tmp_path, "fixed-point", FIXED_POINT_CFG, "out_a")
    code_b, out_b = _run(tmp_path, "fixed-point", FIXED_POINT_CFG, "out_b")
    assert code_a == code_b == 0
    assert _dir_bytes(out_a) == _dir_bytes(out_b)


def test_kinetic_command_writes_tables_and_summary(tmp_path):
    code, out = _run(tmp_path, "simulate-kinetic", KINETIC_CFG)
    assert code == 0
    hist = (out / "sales_histogram.csv").read_text().strip().split("\n")
    assert hist[0] == "price,density"
    assert len(hist) == 102
    series = (out / "series.csv").read_text().strip().split("\n")
    assert series[0] == "time,x_total,z_total,sales_rate"
    assert len(series) == 201
    summary = parse_config((out / "summary.txt").read_text())
    assert float(summary["event_count"]) > 0.0
    assert int(summary["cap_hits"]) == 0


def test_kinetic_diagnostics_report_the_worst_depletion(tmp_path):
    code, out = _run(tmp_path, "simulate-kinetic", FLOODED_KINETIC_CFG, "flooded")
    assert code == 0
    diagnostics = parse_config((out / "diagnostics.txt").read_text())
    assert sorted(diagnostics) == ["stability_bound", "worst_depletion"]
    assert float(diagnostics["stability_bound"]) == 0.1
    assert float(diagnostics["worst_depletion"]) > 0.1
    assert int(parse_config((out / "summary.txt").read_text())["cap_hits"]) == 24_213

    code, out = _run(tmp_path, "simulate-kinetic", KINETIC_CFG, "matched")
    assert code == 0
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(100.0, 100.0, 1.0, 0.2, shape="matched")
    result = run(stationary_state(grid, 1.0, inflow), inflow, dt=0.01, horizon=2.0)
    assert 0.0 < result.worst_depletion < 0.1
    assert (out / "diagnostics.txt").read_text() == (
        f"worst_depletion = {result.worst_depletion!r}\nstability_bound = 0.1\n")
    assert parse_config((out / "manifest.txt").read_text())["artifacts"] == (
        "diagnostics.txt sales_histogram.csv series.csv summary.txt")


def test_kinetic_stability_refusal_exits_2(tmp_path, capsys):
    cfg = KINETIC_CFG.replace("kinetic.dt = 0.01", "kinetic.dt = 0.1")
    code, out = _run(tmp_path, "simulate-kinetic", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "0.1" in err and "stability" in err
    assert not (out / "sales_histogram.csv").exists()


def test_fixed_point_refusal_quotes_the_last_gap_and_tol(tmp_path, capsys):
    cfg = FIXED_POINT_CFG.replace("fixedpoint.tol = 1e-2", "fixedpoint.max_iter = 3")
    code, out = _run(tmp_path, "fixed-point", cfg)
    assert code == 2
    with pytest.raises(NonConvergence) as refused:
        fixed_point_solve(uniform_grid(0.0, 2.0, 201), None, max_iter=3)
    err = capsys.readouterr().err
    assert f"last gap {refused.value.last_gap!r} is not below tol 0.001" in err
    assert not out.exists()


def test_fixed_point_laplace_seed_of_a_subnormal_scale_exits_1_naming_sigma(tmp_path):
    cfg = FIXED_POINT_CFG + ("fixedpoint.init = laplace\nfixedpoint.init_mu = 1\n"
                             "fixedpoint.init_sigma = 1e-310\n")
    # A child interpreter with the default warning filters, which would print
    # an overflow in 1 / (2 sigma) ahead of the error line.
    config, out = _write(tmp_path, "fixed-point.cfg", cfg), tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "dispersim", "fixed-point",
         str(config), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 1
    assert done.stderr == ("dispersim: error: sigma must be finite and at least "
                           "2.2250738585072014e-308, got 1e-310\n")
    assert not out.exists()


def test_kinetic_vanishing_inflow_shape_exits_2_without_artifacts(tmp_path, capsys):
    code, out = _run(tmp_path, "simulate-kinetic", VANISHING_INFLOW_CFG)
    assert code == 2
    assert "inflow shape vanishes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, exit_code, named", [
    pytest.param(
        "simulate-kinetic", KINETIC_CFG.replace("kinetic.eta = 1.0", "kinetic.eta = 5e-324"),
        1, "eta = 5e-324 is too small", id="kinetic-eta"),
    pytest.param(
        "fixed-point", FIXED_POINT_CFG.replace("grid.max = 2\n", "grid.max = 2e-320\n")
        .replace("grid.points = 201", "grid.points = 3"),
        1, "1 / span finite", id="fixed-point-span"),
])
def test_a_quotient_that_would_overflow_is_refused_by_name_without_warnings(
        tmp_path, capsys, command, cfg, exit_code, named):
    # The suite turns RuntimeWarning into an error, so a warning on the way
    # would end this call in a traceback rather than an exit code.
    code, out = _run(tmp_path, command, cfg)
    assert code == exit_code
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_1(tmp_path, capsys):
    code, _ = _run(tmp_path, "simulate-kinetic", KINETIC_CFG + "kinetic.etaa = 2\n")
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err
    code, _ = _run(tmp_path, "simulate-meanprice", SDE_CFG + "sde.walras_gain = 0.5\n")
    assert code == 1
    assert "sde.walras_gain" in capsys.readouterr().err


def _valid_configs(tmp_path):
    draws = np.random.default_rng(5).laplace(1.0, 0.2, 200)
    sample = _write(tmp_path, "sample.csv", write_sample(Sample(draws)))
    table = _write(tmp_path, "transactions.csv",
                   "good_id,market_id,quarter,price,quantity\n"
                   "rice,n,2011Q1,1.0,1\nrice,s,2011Q1,2.0,3\n")
    return {
        "simulate-kinetic": KINETIC_CFG,
        "simulate-meanprice": SDE_CFG,
        "fixed-point": FIXED_POINT_CFG,
        "mixture": MIXTURE_CFG,
        "fit": f"fit.input = {sample}\nfit.family = laplace\n",
        "normalize": f"normalize.input = {table}\n",
    }


@pytest.mark.parametrize("command", [
    "simulate-kinetic", "simulate-meanprice", "fixed-point", "mixture", "fit", "normalize",
])
def test_a_key_the_run_does_not_read_exits_1_and_writes_nothing(tmp_path, capsys, command):
    cfg = _valid_configs(tmp_path)[command]
    code, out = _run(tmp_path, command, cfg)
    assert code == 0
    before = _dir_bytes(out)
    code, _ = _run(tmp_path, command, cfg + "grid.pionts = 11\n")
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown config keys: grid.pionts" in err
    assert _dir_bytes(out) == before


@pytest.mark.parametrize("command, key, word", [
    ("simulate-kinetic", "kinetic.demand_rate", "nan"),
    ("simulate-kinetic", "kinetic.eta", "nan"),
    ("simulate-kinetic", "kinetic.horizon", "inf"),
    ("simulate-meanprice", "sde.noise_amp", "nan"),
    ("simulate-meanprice", "sde.horizon", "inf"),
    ("mixture", "mixture.gamma", "1e400"),
])
def test_non_finite_config_numbers_exit_1(tmp_path, capsys, command, key, word):
    cfg = _valid_configs(tmp_path)[command]
    cfg = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {word}", cfg, flags=re.M)
    assert f"{key} = {word}" in cfg
    code, out = _run(tmp_path, command, cfg)
    assert code == 1
    assert f"config key {key!r} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_kinetic_books_that_overflow_exit_2_without_artifacts(tmp_path):
    cfg = FLOODED_KINETIC_CFG.replace("grid.points = 101", "grid.points = 11")
    for key, word in [("kinetic.eta", "1e-300"), ("kinetic.dt", "1"),
                      ("kinetic.horizon", "50"), ("kinetic.demand_rate", "1e308"),
                      ("kinetic.supply_rate", "1e308"), ("kinetic.shape", "matched")]:
        cfg = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {word}", cfg, flags=re.M)
    # A child interpreter with the default warning filters: numpy's overflow
    # warnings would be printed to its stderr ahead of the error line.
    config, out = _write(tmp_path, "kinetic.cfg", cfg), tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "dispersim", "simulate-kinetic",
         str(config), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("dispersim: error: the books overflow")
    assert done.stderr.count("\n") == 1
    assert not out.exists()


def test_a_kinetic_dt_past_the_step_budget_exits_1_naming_dt(tmp_path, capsys):
    code, out = _run(tmp_path, "simulate-kinetic",
                     KINETIC_CFG.replace("kinetic.dt = 0.01", "kinetic.dt = 1e-300"))
    assert code == 1
    assert "dt = 1e-300" in capsys.readouterr().err
    assert not out.exists()


def test_keys_the_run_would_ignore_exit_1(tmp_path, capsys):
    code, out = _run(tmp_path, "simulate-kinetic", KINETIC_CFG + "kinetic.x0 = 1e9\n")
    assert code == 1
    assert "kinetic.x0" in capsys.readouterr().err
    cfg = FIXED_POINT_CFG + "fixedpoint.init_sigma = -1\n"
    code, _ = _run(tmp_path, "fixed-point", cfg)
    assert code == 1
    assert "fixedpoint.init_sigma" in capsys.readouterr().err
    cfg = FIXED_POINT_CFG + "fixedpoint.init = uniform\nfixedpoint.init_mu = 1\n"
    code, _ = _run(tmp_path, "fixed-point", cfg)
    assert code == 1
    assert "fixedpoint.init_mu" in capsys.readouterr().err
    assert not out.exists()


def test_initial_state_keys_are_used_where_they_apply(tmp_path):
    cfg = KINETIC_CFG.replace(
        "kinetic.stationary_init = yes", "kinetic.stationary_init = no"
    ) + "kinetic.x0 = 5\nkinetic.z0 = 5\n"
    code, out = _run(tmp_path, "simulate-kinetic", cfg, "kinetic")
    assert code == 0
    series = (out / "series.csv").read_text().splitlines()
    # from empty books one step of inflow would hold about 1 unit a side
    assert min(float(v) for v in series[1].split(",")[1:3]) > 4.0
    cfg = FIXED_POINT_CFG + (
        "fixedpoint.init = laplace\nfixedpoint.init_mu = 1\nfixedpoint.init_sigma = 0.2\n"
    )
    code, _ = _run(tmp_path, "fixed-point", cfg, "fixed")
    assert code == 0


def test_missing_required_key_exits_1(tmp_path, capsys):
    cfg = KINETIC_CFG.replace("kinetic.eta = 1.0\n", "")
    code, _ = _run(tmp_path, "simulate-kinetic", cfg)
    assert code == 1
    assert "kinetic.eta" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = main(["fixed-point", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err


def test_a_config_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(FIXED_POINT_CFG.encode() + b"# caf\xe9\n")
    out = tmp_path / "out"
    assert main(["fixed-point", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"cannot read config {cfg}" in err
    assert f"byte {len(FIXED_POINT_CFG) + 5}" in err
    assert not out.exists()


def test_meanprice_command_stores_paths(tmp_path):
    code, out = _run(tmp_path, "simulate-meanprice", SDE_CFG)
    assert code == 0
    terminal = (out / "terminal.csv").read_text().strip().split("\n")
    assert terminal[0] == "omega"
    assert len(terminal) == 5
    paths = (out / "paths.csv").read_text().strip().split("\n")
    assert paths[0] == "path_id,time,omega"
    assert len(paths) == 1 + 4 * 5
    summary = parse_config((out / "summary.txt").read_text())
    assert summary["n_paths"] == "4"
    float(summary["log_mean"])
    float(summary["log_std"])
    # terminal values in the table equal the final path points exactly
    last = [line.split(",") for line in paths[1:] if line.split(",")[1] == "1.0"]
    assert [row[2] for row in last] == terminal[1:]


# dt = 0.1 gives times such as 0.30000000000000004 and dt = 1e-05 times in
# exponent form such as 2e-05, so every float goes through repr exactly as
# numpy scalars formatted one by one would; 12 paths give two-digit ids
def test_a_tiny_meanprice_dt_runs_without_paths_and_is_refused_with_them(tmp_path, capsys):
    cfg = SDE_CFG.replace("sde.dt = 0.25", "sde.dt = 1e-300")
    code, out = _run(tmp_path, "simulate-meanprice", cfg.replace("sde.store_paths = true\n", ""))
    assert code == 0
    assert sorted(_dir_bytes(out)) == ["manifest.txt", "summary.txt", "terminal.csv"]
    code, out = _run(tmp_path, "simulate-meanprice", cfg, "paths")
    assert code == 1
    assert "dt = 1e-300" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dt, horizon, n_paths", [
    (0.1, 1.0, 7), (0.1, 1.0, 12), (1e-05, 5e-05, 7)])
def test_paths_csv_bytes_match_per_element_formatting(tmp_path, dt, horizon, n_paths):
    cfg = (SDE_CFG.replace("sde.dt = 0.25", f"sde.dt = {dt!r}")
           .replace("sde.horizon = 1.0", f"sde.horizon = {horizon!r}")
           .replace("n_paths = 4", f"n_paths = {n_paths}"))
    code, out = _run(tmp_path, "simulate-meanprice", cfg)
    assert code == 0
    params = SdeParams(omega0=0.41, noise_amp=0.03, dt=dt, horizon=horizon,
                       n_paths=n_paths, seed=3)
    result = simulate_mean_price(params, store_paths=True)
    times = params.dt * np.arange(params.n_steps + 1)
    expected = ["path_id,time,omega\n"]
    for i in range(params.n_paths):
        for t, w in zip(times, result.paths[i]):
            expected.append(f"{i},{float(t)!r},{float(w)!r}\n")
    assert (out / "paths.csv").read_bytes() == "".join(expected).encode()


def _per_element_table(header, *columns):
    # the writer's earlier form: one numpy float64 scalar per cell
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return header + "\n" + "".join(line % row for row in zip(*columns))


def test_table_and_column_bytes_match_per_element_formatting():
    values = np.array([0.30000000000000004, 1e-300, 5e-324, 2.2250738585072014e-308 / 3,
                       -0.0, 1.0, 123456789.123456789, 1.7976931348623157e308])
    other = values[::-1].copy()
    assert _table("a,b", values, other) == _per_element_table("a,b", values, other)
    assert _column("v", values) == "v\n" + "".join(f"{float(v)!r}\n" for v in values)


def test_series_and_density_bytes_match_per_element_formatting(tmp_path):
    # dt = 0.1 gives times such as 0.30000000000000004
    cfg = (FLOODED_KINETIC_CFG.replace("kinetic.dt = 0.05", "kinetic.dt = 0.1")
           .replace("kinetic.horizon = 20", "kinetic.horizon = 3"))
    code, out = _run(tmp_path, "simulate-kinetic", cfg, "kinetic")
    assert code == 0
    grid = uniform_grid(0.0, 2.0, 101)
    inflow = InflowSpec(500.0, 100.0, mu_ref=1.0, sigma_ref=0.2, shape="monotone")
    result = run(initial_state(grid, 1.0, inflow), inflow, dt=0.1, horizon=3.0)
    assert 0.30000000000000004 in result.times
    assert (out / "series.csv").read_text() == _per_element_table(
        "time,x_total,z_total,sales_rate", result.times, result.x_series,
        result.z_series, result.sales_rate_series)

    # a narrow law on a wide grid: fitted densities pass through 1e-300 and
    # the subnormal range on their way to 0
    draws = np.random.default_rng(0).laplace(1.0, 0.01, 2000)
    sample_path = _write(tmp_path, "sample.csv", write_sample(Sample(draws)))
    cfg = (f"fit.input = {sample_path}\nfit.family = laplace\n"
           "fit.grid_min = 0\nfit.grid_max = 10\nfit.grid_points = 1001\n")
    code, out = _run(tmp_path, "fit", cfg, "fit")
    assert code == 0
    fit = fit_laplace(load_sample(sample_path))
    grid = uniform_grid(0.0, 10.0, 1001)
    empirical, _ = histogram(load_sample(sample_path), grid)
    fitted = laplace_density(grid, fit.params)
    assert np.any((fitted > 0.0) & (fitted < 2.2250738585072014e-308))
    assert np.any((fitted > 1e-305) & (fitted < 1e-295))
    assert (out / "series.csv").read_text() == _per_element_table(
        "price,empirical_density,fitted_density", grid, empirical.density, fitted)

    code, out = _run(tmp_path, "mixture", MIXTURE_CFG, "mixture")
    assert code == 0
    grid = uniform_grid(0.2, 3.0, 12)
    density = mixture_density(grid, LognormalParams(gamma=1.0, omega=0.3))
    assert (out / "density.csv").read_text() == _per_element_table(
        "price,density", grid, density)


def test_reused_output_directory_drops_the_previous_runs_other_artifacts(tmp_path):
    code, out = _run(tmp_path, "simulate-meanprice", SDE_CFG)
    assert code == 0 and (out / "paths.csv").exists()
    (out / "notes.txt").write_text("kept\n")
    code, _ = _run(tmp_path, "simulate-meanprice",
                   SDE_CFG.replace("store_paths = true", "store_paths = false"))
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.txt", "notes.txt", "summary.txt", "terminal.csv"]
    assert parse_config((out / "manifest.txt").read_text())["artifacts"] == (
        "summary.txt terminal.csv")
    # a different subcommand replaces the whole listed set
    code, _ = _run(tmp_path, "mixture", MIXTURE_CFG)
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "density.csv", "manifest.txt", "notes.txt"]


def test_artifacts_get_the_umask_default_mode(tmp_path):
    umask = os.umask(0o022)
    os.umask(umask)
    for _ in range(2):  # the rerun replaces each file, and must keep its mode
        code, out = _run(tmp_path, "simulate-meanprice", SDE_CFG)
        assert code == 0
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert sorted(modes) == ["manifest.txt", "paths.csv", "summary.txt", "terminal.csv"]
        assert set(modes.values()) == {0o666 & ~umask}


def test_failed_reruns_remove_nothing(tmp_path, capsys):
    code, out = _run(tmp_path, "simulate-meanprice", SDE_CFG)
    assert code == 0
    before = _dir_bytes(out)
    cfg = SDE_CFG.replace("store_paths = true", "store_paths = false")
    code, _ = _run(tmp_path, "simulate-meanprice", cfg.replace("n_paths = 4", "n_paths = 0"))
    assert code == 1
    assert _dir_bytes(out) == before
    code, _ = _run(tmp_path, "simulate-kinetic", VANISHING_INFLOW_CFG)
    assert code == 2
    assert _dir_bytes(out) == before


def test_manifest_never_removes_files_outside_its_directory(tmp_path):
    out = tmp_path / "out"
    (out / "listed_dir").mkdir(parents=True)
    (tmp_path / "outside.txt").write_text("kept\n")
    (out / "manifest.txt").write_text("artifacts = ../outside.txt listed_dir\n")
    code, _ = _run(tmp_path, "mixture", MIXTURE_CFG)
    assert code == 0
    assert (tmp_path / "outside.txt").exists() and (out / "listed_dir").is_dir()
    # a manifest without an artifacts line lists nothing to remove
    out = tmp_path / "unlisted"
    out.mkdir()
    (out / "manifest.txt").write_text("command = simulate-meanprice\n")
    (out / "paths.csv").write_text("kept\n")
    code, _ = _run(tmp_path, "mixture", MIXTURE_CFG, out_name="unlisted")
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["density.csv", "manifest.txt", "paths.csv"]
    assert (out / "paths.csv").read_text() == "kept\n"


def test_a_failed_rename_reraises_and_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError, match=r"cannot rename .*/density\.csv\.[0-9a-f]{16}\.tmp$"):
        atomic_write_text(tmp_path / "density.csv", "price,density\n")
    assert list(tmp_path.iterdir()) == []


#: Each subcommand's config without its optional model keys, and for each
#: such key the library callable and parameter whose signature holds its default.
LIBRARY_DEFAULTS = {
    "simulate-kinetic": (
        KINETIC_CFG.replace("kinetic.shape = matched\n", "")
        .replace("kinetic.stationary_init = yes\n", ""),
        {"kinetic.shape": (InflowSpec, "shape"), "kinetic.jitter": (InflowSpec, "jitter"),
         "kinetic.x0": (initial_state, "x_total"), "kinetic.z0": (initial_state, "z_total"),
         "seed": (run, "seed")}),
    "simulate-meanprice": (SDE_CFG.replace("seed = 3\n", ""), {"seed": (SdeParams, "seed")}),
    "fixed-point": (
        FIXED_POINT_CFG.replace("grid.points = 201", "grid.points = 51")
        .replace("fixedpoint.tol = 1e-2\n", ""),
        {"fixedpoint.tol": (fixed_point_solve, "tol"),
         "fixedpoint.max_iter": (fixed_point_solve, "max_iter")}),
    "mixture": (MIXTURE_CFG, {
        "mixture.shift": (LognormalParams, "shift"), "mixture.floor": (mixture_density, "floor"),
        "mixture.conditional_scale": (mixture_density, "conditional_scale"),
        "mixture.n_nodes": (mixture_density, "n_nodes"),
        "mixture.rel_tol": (mixture_density, "rel_tol")}),
    "normalize": (None, {"normalize.grouping": (normalize_prices, "grouping"),
                         "normalize.weighted": (normalize_prices, "weighted")}),
}


@pytest.mark.parametrize("command", sorted(LIBRARY_DEFAULTS))
def test_omitted_optional_keys_take_the_library_defaults(tmp_path, command):
    cfg, keys = LIBRARY_DEFAULTS[command]
    cfg = cfg or _valid_configs(tmp_path)[command]
    words = []
    for key, (library, parameter) in keys.items():
        default = inspect.signature(library).parameters[parameter].default
        assert key not in cfg and default is not inspect.Parameter.empty
        words.append(f"{key} = {str(default).lower() if isinstance(default, bool) else default}\n")
    code_a, out_a = _run(tmp_path, command, cfg, "omitted")
    code_b, out_b = _run(tmp_path, command, cfg + "".join(words), "set")
    assert code_a == code_b == 0
    bytes_a, bytes_b = _dir_bytes(out_a), _dir_bytes(out_b)
    del bytes_a["manifest.txt"], bytes_b["manifest.txt"]
    assert bytes_a == bytes_b


def test_seed_flag_overrides_config_seed(tmp_path):
    code_a, out_a = _run(tmp_path, "simulate-meanprice", SDE_CFG, "out_a")
    code_b, out_b = _run(
        tmp_path, "simulate-meanprice", SDE_CFG, "out_b", extra=["--seed", "11"]
    )
    assert code_a == code_b == 0
    manifest = parse_config((out_b / "manifest.txt").read_text())
    assert manifest["seed"] == "11"
    assert (out_a / "terminal.csv").read_text() != (out_b / "terminal.csv").read_text()


@pytest.mark.parametrize("command", ["fixed-point", "mixture", "fit", "normalize"])
def test_a_subcommand_that_draws_nothing_refuses_a_seed(tmp_path, capsys, command):
    cfg = _valid_configs(tmp_path)[command]
    for text, extra in [(cfg + "seed = 3\n", ()), (cfg, ("--seed", "3"))]:
        code, out = _run(tmp_path, command, text, extra=extra)
        assert code == 1
        assert "unknown config keys: seed" in capsys.readouterr().err
        assert not out.exists()


def test_a_simulator_seed_defaults_to_0(tmp_path):
    # simulate-kinetic reads the seed even without jitter, when it draws nothing
    for n, (command, cfg) in enumerate([
        ("simulate-kinetic", KINETIC_CFG + "kinetic.jitter = 0.2\n"),
        ("simulate-kinetic", KINETIC_CFG),
        ("simulate-meanprice", SDE_CFG.replace("seed = 3\n", "")),
    ]):
        code_a, out_a = _run(tmp_path, command, cfg, f"out{n}_a")
        code_b, out_b = _run(tmp_path, command, "seed = 0\n" + cfg, f"out{n}_b")
        assert code_a == code_b == 0
        bytes_a, bytes_b = _dir_bytes(out_a), _dir_bytes(out_b)
        manifest_a, manifest_b = bytes_a.pop("manifest.txt"), bytes_b.pop("manifest.txt")
        assert bytes_a == bytes_b
        assert b"seed" not in manifest_a and b"\nseed = 0\n" in manifest_b


def test_mixture_command_writes_density(tmp_path):
    code, out = _run(tmp_path, "mixture", MIXTURE_CFG)
    assert code == 0
    lines = (out / "density.csv").read_text().strip().split("\n")
    assert lines[0] == "price,density"
    assert len(lines) == 13
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.all(values > 0.0)


def test_mixture_quadrature_refusal_exits_2(tmp_path, capsys):
    cfg = MIXTURE_CFG + "mixture.conditional_scale = 0.01\nmixture.n_nodes = 17\n"
    code, _ = _run(tmp_path, "mixture", cfg)
    assert code == 2
    assert "n_nodes" in capsys.readouterr().err


def test_grid_range_whose_span_overflows_exits_1_without_warnings(tmp_path):
    cfg = (MIXTURE_CFG.replace("grid.min = 0.2", "grid.min = -1e308")
           .replace("grid.max = 3.0", "grid.max = 1e308")
           .replace("grid.points = 12", "grid.points = 5"))
    # A child interpreter with the default warning filters, so that numpy's
    # overflow warnings would show on its stderr.
    config, out = _write(tmp_path, "mixture.cfg", cfg), tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "dispersim", "mixture",
         str(config), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 1
    assert "grid range [-1e+308, 1e+308]" in done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert not out.exists()


def test_mixture_negative_rel_tol_exits_1(tmp_path, capsys):
    code, out = _run(tmp_path, "mixture", MIXTURE_CFG + "mixture.rel_tol = -1\n")
    assert code == 1
    assert "rel_tol" in capsys.readouterr().err
    assert not out.exists()


def test_fit_laplace_command_recovers_scale(tmp_path):
    draws = np.random.default_rng(0).laplace(1.0, 0.125, 100_000)
    sample_path = _write(tmp_path, "sample.csv", write_sample(Sample(draws)))
    cfg = f"fit.input = {sample_path}\nfit.family = laplace\n"
    code, out = _run(tmp_path, "fit", cfg)
    assert code == 0
    fit = parse_config((out / "fit.txt").read_text())
    assert fit["family"] == "laplace"
    assert abs(float(fit["sigma"]) - 0.125) / 0.125 < 0.02
    assert abs(float(fit["mu"]) - 1.0) < 0.01
    series = (out / "series.csv").read_text().strip().split("\n")
    assert series[0] == "price,empirical_density,fitted_density"
    assert len(series) == 202


def test_fit_lognormal_command_recovers_spread_law(tmp_path):
    rng = np.random.default_rng(3)
    draws = 0.0245 + 0.41 * np.exp(0.245 * rng.standard_normal(100_000))
    sample_path = _write(tmp_path, "sample.csv", write_sample(Sample(draws)))
    cfg = f"fit.input = {sample_path}\nfit.family = shifted-lognormal\n"
    code, out = _run(tmp_path, "fit", cfg)
    assert code == 0
    fit = parse_config((out / "fit.txt").read_text())
    assert fit["family"] == "shifted-lognormal"
    assert abs(float(fit["shift"]) - 0.0245) / 0.0245 < 0.05
    assert abs(float(fit["gamma"]) - 0.41) / 0.41 < 0.05
    assert abs(float(fit["omega"]) - 0.245) / 0.245 < 0.05


def test_fit_rejects_mismatched_shift_options(tmp_path, capsys):
    draws = np.random.default_rng(1).laplace(1.0, 0.2, 100)
    sample_path = _write(tmp_path, "s.csv", write_sample(Sample(draws)))
    cfg = f"fit.input = {sample_path}\nfit.family = laplace\nfit.shift_lo = 0\nfit.shift_hi = 0\n"
    code, _ = _run(tmp_path, "fit", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "fit.shift_lo" in err and "fit.shift_hi" in err

    cfg = f"fit.input = {sample_path}\nfit.family = shifted-lognormal\nfit.shift_lo = 0\n"
    code, _ = _run(tmp_path, "fit", cfg, "out2")
    assert code == 1
    assert "together" in capsys.readouterr().err


@pytest.mark.parametrize("lo, hi", [("-5", "-4"), ("0.3", "0.1"), ("-1", "0.5")])
def test_fit_refuses_negative_or_inverted_shift_bounds_with_exit_1(tmp_path, capsys, lo, hi):
    draws = np.random.default_rng(1).lognormal(0.0, 0.3, 100)
    sample_path = _write(tmp_path, "s.csv", write_sample(Sample(draws)))
    cfg = (f"fit.input = {sample_path}\nfit.family = shifted-lognormal\n"
           f"fit.shift_lo = {lo}\nfit.shift_hi = {hi}\n")
    code, out = _run(tmp_path, "fit", cfg)
    assert code == 1
    assert "shift bounds must satisfy 0 <= lo <= hi" in capsys.readouterr().err
    assert not out.exists()


def test_failed_fit_reruns_leave_the_output_directory_untouched(tmp_path, capsys):
    draws = np.random.default_rng(4).laplace(1.0, 0.125, 1000)
    sample_path = _write(tmp_path, "sample.csv", write_sample(Sample(draws)))
    code, out = _run(tmp_path, "fit", f"fit.input = {sample_path}\nfit.family = laplace\n")
    assert code == 0
    before = _dir_bytes(out)
    lognormal = f"fit.input = {sample_path}\nfit.family = shifted-lognormal\n"
    code, _ = _run(tmp_path, "fit", lognormal + "fit.grid_min = 50\nfit.grid_max = 60\n")
    assert code == 2
    assert "outside the grid" in capsys.readouterr().err
    assert _dir_bytes(out) == before
    code, _ = _run(tmp_path, "fit", lognormal + "fit.grid_min = 2\nfit.grid_max = 1\n")
    assert code == 1
    assert _dir_bytes(out) == before


@pytest.mark.parametrize("family, rows, message", [
    ("laplace", "1.0\n1.0\n1.0\n", "all observations coincide; scale is zero"),
    ("laplace", "1.0\n", "need at least two observations"),
    ("shifted-lognormal", "2.0\n2.0\n2.0\n2.0\n", "all observations coincide"),
    ("shifted-lognormal", "2.0\n", "need at least three observations"),
])
def test_fit_of_a_degenerate_sample_exits_2_and_leaves_out_untouched(
        tmp_path, capsys, family, rows, message):
    # the default grid of such a sample is empty: the fitter's refusal comes first
    draws = np.random.default_rng(4).laplace(1.0, 0.125, 100)
    good = _write(tmp_path, "good.csv", write_sample(Sample(draws)))
    code, out = _run(tmp_path, "fit", f"fit.input = {good}\nfit.family = {family}\n")
    assert code == 0
    before = _dir_bytes(out)
    capsys.readouterr()
    sample_path = _write(tmp_path, "s.csv", "value\n" + rows)
    code, _ = _run(tmp_path, "fit", f"fit.input = {sample_path}\nfit.family = {family}\n")
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "p_max > p_min" not in err
    assert _dir_bytes(out) == before


def test_fit_laplace_below_the_floor_exits_2_without_artifacts(tmp_path, capsys):
    sample_path = _write(tmp_path, "s.csv", "value\n-1\n-0.5\n-0.2\n0.1\n")
    code, out = _run(tmp_path, "fit", f"fit.input = {sample_path}\nfit.family = laplace\n")
    assert code == 2
    assert "weighted median -0.5 lies below the price floor 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_fit_lognormal_on_the_clamp_exits_2_without_artifacts(tmp_path, capsys):
    # 1 + Exp(1)^2 piles up at its minimum: the profile likelihood of the
    # shift keeps rising up to the clamp 0.99 * min(x).
    draws = 1.0 + np.random.default_rng(0).exponential(1.0, 300) ** 2
    sample_path = _write(tmp_path, "s.csv", write_sample(Sample(draws)))
    cfg = f"fit.input = {sample_path}\nfit.family = shifted-lognormal\n"
    code, out = _run(tmp_path, "fit", cfg)
    assert code == 2
    assert "no local maximum in [0.0, " in capsys.readouterr().err
    assert not out.exists()


def _fit_in_child(tmp_path, rows, cfg, header="value"):
    """Run ``dispersim fit`` on ``rows`` in a child that turns warnings into errors.

    The timeout fails a search that never ends instead of hanging the suite.
    """
    sample_path = _write(tmp_path, "s.csv", f"{header}\n{rows}")
    config = _write(tmp_path, "fit.cfg", f"fit.input = {sample_path}\n{cfg}")
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dispersim", "fit", str(config), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=20)
    return done, out


def test_fit_lognormal_on_subnormal_shift_bounds_ends(tmp_path):
    # below a width of about 5e-318, 1e-6 of the bounds width rounds to 0
    done, out = _fit_in_child(
        tmp_path, "1\n2\n3\n5\n",
        "fit.family = shifted-lognormal\nfit.shift_lo = 0\nfit.shift_hi = 1e-320\n")
    assert (done.returncode, done.stderr) == (0, "")
    assert 0.0 <= float(parse_config((out / "fit.txt").read_text())["shift"]) <= 1e-320


def test_fit_lognormal_of_subnormal_values_ends(tmp_path):
    done, out = _fit_in_child(
        tmp_path, "1e-320\n2e-320\n3e-320\n5e-320\n", "fit.family = shifted-lognormal\n")
    assert done.returncode == 2
    assert done.stderr.startswith("dispersim: error: the shift profile has no local maximum")
    assert not out.exists()


def test_fit_lognormal_on_a_grid_to_the_float_maximum_warns_nothing(tmp_path):
    # the fitted omega is about 1.5, so sqrt(2 pi) * omega * x overflows near 1e308
    draws = np.exp(1.5 * np.random.default_rng(4).standard_normal(200))
    done, out = _fit_in_child(tmp_path, "".join(f"{v!r}\n" for v in draws.tolist()),
                              "fit.family = shifted-lognormal\nfit.grid_max = 1e308\n")
    assert (done.returncode, done.stderr) == (0, "")
    assert (out / "series.csv").exists()


def test_fit_laplace_whose_deviations_overflow_exits_2_without_artifacts(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept\n")
    done, _ = _fit_in_child(tmp_path, "-1e308\n1e308\n1e308\n", "fit.family = laplace\n")
    assert done.returncode == 2
    assert done.stderr == ("dispersim: error: the mean absolute deviation about 1e+308 "
                           "overflows\n")
    assert _dir_bytes(out) == {"keep.txt": b"kept\n"}


@pytest.mark.parametrize("weight", ["1", "1e308"])
def test_fit_of_weights_whose_plain_sums_overflow_matches_unit_weights(tmp_path, weight):
    rows = "".join(f"{v},{weight}\n" for v in (1, 2, 3))
    done, out = _fit_in_child(tmp_path, rows, "fit.family = laplace\n", "value,weight")
    assert (done.returncode, done.stderr) == (0, "")
    fit = parse_config((out / "fit.txt").read_text())
    assert (fit["mu"], fit["sigma"]) == ("2.0", "0.6666666666666666")
    # -3e308 * (log(4/3) + 1) rounds to -inf
    assert float(fit["loglik"]) == (-np.inf if weight == "1e308" else -3 * (np.log(4 / 3) + 1))
    done, out = _fit_in_child(tmp_path, rows, "fit.family = shifted-lognormal\n", "value,weight")
    assert done.returncode == 2
    assert done.stderr.startswith("dispersim: error: the shift profile has no local maximum")


def test_fit_missing_input_file_exits_1(tmp_path, capsys):
    cfg = f"fit.input = {tmp_path / 'absent.csv'}\nfit.family = laplace\n"
    code, _ = _run(tmp_path, "fit", cfg)
    assert code == 1


def test_normalize_command_writes_groups_without_touching_input(tmp_path):
    rows = ["good_id,market_id,quarter,price,quantity"]
    rng = np.random.default_rng(2)
    for g in ("rice", "milk", "salt"):
        for i in range(6):
            rows.append(f"{g},m{i % 2},2011Q1,{rng.uniform(0.5, 2.0)!r},{i + 1}")
    text = "\n".join(rows) + "\n"
    data_path = _write(tmp_path, "transactions.csv", text)
    before = data_path.read_bytes()
    cfg = f"normalize.input = {data_path}\nnormalize.grouping = good\n"
    code, out = _run(tmp_path, "normalize", cfg)
    assert code == 0
    assert data_path.read_bytes() == before
    normalized = (out / "normalized.csv").read_text().strip().split("\n")
    assert normalized[0] == "group_key,value,weight"
    assert len(normalized) == 19
    stds = (out / "group_stds.csv").read_text().strip().split("\n")
    assert stds[0] == "value"
    assert len(stds) == 4
    summary = parse_config((out / "summary.txt").read_text())
    assert summary["transactions"] == "18"
    assert summary["groups"] == "3"
    assert summary["skipped_groups"] == "0"


def test_normalize_underflowing_group_exits_2_without_artifacts(tmp_path, capsys):
    data_path = _write(
        tmp_path, "t.csv",
        "good_id,market_id,quarter,price,quantity\n"
        "milk,n,2011Q1,1e-300,1\n"
        "milk,s,2011Q1,1e300,1\n",
    )
    code, out = _run(tmp_path, "normalize", f"normalize.input = {data_path}\n")
    assert code == 2
    assert "milk" in capsys.readouterr().err
    assert not out.exists()


def test_normalize_overflowing_group_exits_2_and_leaves_out_untouched(tmp_path, capsys):
    header = "good_id,market_id,quarter,price,quantity\n"
    good = _write(tmp_path, "good.csv", header + "milk,a,q,1.0,2\nmilk,b,q,3.0,1\n")
    code, out = _run(tmp_path, "normalize", f"normalize.input = {good}\n")
    assert code == 0
    before = _dir_bytes(out)
    capsys.readouterr()
    data_path = _write(
        tmp_path, "t.csv",
        header + "milk,a,q,1e-300,1e308\nmilk,b,q,1e-300,1e308\nmilk,c,q,1e300,1e-100\n",
    )
    # pytest turns numpy's RuntimeWarnings into errors, so none is raised
    code, _ = _run(tmp_path, "normalize", f"normalize.input = {data_path}\n")
    assert code == 2
    assert "group ('milk',): mean price underflows to 0" in capsys.readouterr().err
    assert _dir_bytes(out) == before


def test_normalize_of_a_mean_price_that_underflows_says_so(tmp_path, capsys):
    # the exact quantity-weighted mean is 1e-323, but every scaled product
    # underflows, so mu0 comes out 0.0: the reason must not divide by it
    rows = "good_id,market_id,quarter,price,quantity\na,n,q,1.0,5e-324\na,n,q,5e-324,1.0\n"
    code, out = _run(tmp_path, "normalize", f"normalize.input = {_write(tmp_path, 't.csv', rows)}\n")
    assert code == 2
    assert capsys.readouterr().err == "dispersim: error: group ('a',): mean price underflows to 0\n"
    assert not out.exists()


@pytest.mark.parametrize("weighted", ["true", "false"])
def test_normalize_groups_whose_plain_sums_overflow_or_lose_bits_exit_0_without_warnings(
        tmp_path, weighted):
    header = "good_id,market_id,quarter,price,quantity\n"
    cases = [
        # the plain quantity totals overflow; the spread is 1/3
        (header + "milk,a,q,1,1e308\nmilk,b,q,2,1e308\n",
         "0.3333333333333333", "0.3333333333333333"),
        # weighted, mu0 is about 2, so the plain squared deviation of 5e299 overflows
        (header + "milk,a,q,1,1e300\nmilk,b,q,1e300,1\n", "5e+149", "2e-150"),
        # the plain products are subnormal and keep only a few bits
        (header + "bread,a,q,1e-160,1e-160\nbread,b,q,2e-160,1e-160\n"
                  "bread,c,q,3e-160,2e-160\n", "0.3685138655950444", "0.414578098794425"),
    ]
    for n, (rows, *spreads) in enumerate(cases):
        out = tmp_path / f"out{n}"
        cfg = f"normalize.input = {_write(tmp_path, f't{n}.csv', rows)}\n"
        cfg += f"normalize.weighted = {weighted}\n"
        # a child interpreter that turns every warning into an error
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dispersim", "normalize",
             str(_write(tmp_path, f"t{n}.cfg", cfg)), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        spread = spreads[weighted == "false"]
        assert (out / "group_stds.csv").read_text() == f"value\n{spread}\n"


def test_normalize_rejects_unknown_grouping(tmp_path, capsys):
    data_path = _write(
        tmp_path, "t.csv",
        "good_id,market_id,quarter,price,quantity\na,m,q,1.0,1\n",
    )
    cfg = f"normalize.input = {data_path}\nnormalize.grouping = shop\n"
    code, _ = _run(tmp_path, "normalize", cfg)
    assert code == 1
    assert "one of" in capsys.readouterr().err


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "x.cfg"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_version_flag_reports_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
    # the module entry point, as ``python -m dispersim``
    done = subprocess.run([sys.executable, "-m", "dispersim", "--version"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"dispersim {__version__}\n", "")


#: Subcommands and their help lines, in the order ``dispersim --help`` lists them.
HELP_LINES = {
    "simulate-kinetic": "run the per-bin matching simulator and export its sales law",
    "simulate-meanprice": "simulate the multiplicative mean-price ensemble",
    "fixed-point": "solve the stationary sales law by fixed-point iteration",
    "mixture": "evaluate the lognormal mixture of conditional price laws",
    "fit": "fit a price law to a sample file and export the comparison series",
    "normalize": "normalize transaction prices by group means and pool spreads",
}


def _reference_parser():
    """The command line's documented layout, built by hand with argparse."""
    parser = argparse.ArgumentParser(
        prog="dispersim",
        description="Kinetic market simulation and estimation toolkit "
                    "for the price dispersion of homogeneous goods.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_line in HELP_LINES.items():
        sub = subparsers.add_parser(name, help=help_line)
        sub.add_argument("config", help="flat key-value config file")
        sub.add_argument("--out", default="out", help="output directory (default: out)")
        sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in HELP_LINES)])
def test_help_text_matches_the_documented_layout(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    text = capsys.readouterr().out
    with pytest.raises(SystemExit):
        _reference_parser().parse_args(argv)
    assert text == capsys.readouterr().out
    assert text.startswith("usage: dispersim")


def test_main_builds_its_parser_once_and_keeps_no_state_between_calls(
        tmp_path, capsys, monkeypatch):
    _parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "80")
    code, _ = _run(tmp_path, "mixture", MIXTURE_CFG)
    assert code == 0
    bad = ["no-such-command", "x.cfg"]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    with pytest.raises(SystemExit):
        _reference_parser().parse_args(bad)
    assert err == capsys.readouterr().err
    helps = {}
    for columns in ("80", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["fit", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            text = capsys.readouterr().out
            with pytest.raises(SystemExit):
                _reference_parser().parse_args(argv)
            assert text == capsys.readouterr().out
            helps[columns, argv[0]] = text
    assert helps["80", "--help"] != helps["60", "--help"]  # the width was read anew
    assert _parser.cache_info().misses == 1
    assert _parser.cache_info().hits == 5
