"""End-to-end tests of the command-line interface.

Each test writes a config file into a temp directory, invokes ``main``
directly, and inspects the artifact files. Manifests and summaries are in
the same flat key-value format as the configs, so they are parsed with the
config parser.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from dispersim import __version__
from dispersim.cli import main
from dispersim.config import parse_config
from dispersim.dataio import write_sample
from dispersim.fixedpoint import fixed_point_solve
from dispersim.grids import uniform_grid
from dispersim.meanprice import SdeParams, simulate_mean_price
from dispersim.samples import Sample

FIXED_POINT_CFG = """\
seed = 5
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
    assert lines[2] == "seed = 5"
    assert lines[3] == "artifacts = density.csv summary.txt"
    # config keys echoed sorted, with the seed key folded into the seed line
    assert lines[4:] == [
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


def test_kinetic_stability_refusal_exits_2(tmp_path, capsys):
    cfg = KINETIC_CFG.replace("kinetic.dt = 0.01", "kinetic.dt = 0.1")
    code, out = _run(tmp_path, "simulate-kinetic", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "0.1" in err and "stability" in err
    assert not (out / "sales_histogram.csv").exists()


def test_kinetic_vanishing_inflow_shape_exits_2_without_artifacts(tmp_path, capsys):
    code, out = _run(tmp_path, "simulate-kinetic", VANISHING_INFLOW_CFG)
    assert code == 2
    assert "inflow shape vanishes" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_unknown_config_key_exits_1(tmp_path, capsys):
    code, _ = _run(tmp_path, "simulate-kinetic", KINETIC_CFG + "kinetic.etaa = 2\n")
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err
    code, _ = _run(tmp_path, "simulate-meanprice", SDE_CFG + "sde.walras_gain = 0.5\n")
    assert code == 1
    assert "sde.walras_gain" in capsys.readouterr().err


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
    assert list(out.iterdir()) == []


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


def test_paths_csv_bytes_match_per_element_formatting(tmp_path):
    # dt = 0.1 gives times such as 0.30000000000000004, so every float goes
    # through repr exactly as numpy scalars formatted one by one would
    cfg = SDE_CFG.replace("sde.dt = 0.25", "sde.dt = 0.1").replace("n_paths = 4", "n_paths = 7")
    code, out = _run(tmp_path, "simulate-meanprice", cfg)
    assert code == 0
    params = SdeParams(omega0=0.41, noise_amp=0.03, dt=0.1, horizon=1.0, n_paths=7, seed=3)
    result = simulate_mean_price(params, store_paths=True)
    times = params.dt * np.arange(params.n_steps + 1)
    expected = ["path_id,time,omega\n"]
    for i in range(params.n_paths):
        for t, w in zip(times, result.paths[i]):
            expected.append(f"{i},{float(t)!r},{float(w)!r}\n")
    assert (out / "paths.csv").read_bytes() == "".join(expected).encode()


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


def test_seed_flag_overrides_config_seed(tmp_path):
    code_a, out_a = _run(tmp_path, "simulate-meanprice", SDE_CFG, "out_a")
    code_b, out_b = _run(
        tmp_path, "simulate-meanprice", SDE_CFG, "out_b", extra=["--seed", "11"]
    )
    assert code_a == code_b == 0
    manifest = parse_config((out_b / "manifest.txt").read_text())
    assert manifest["seed"] == "11"
    assert (out_a / "terminal.csv").read_text() != (out_b / "terminal.csv").read_text()


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
    assert "shift bounds" in capsys.readouterr().err

    cfg = f"fit.input = {sample_path}\nfit.family = shifted-lognormal\nfit.shift_lo = 0\n"
    code, _ = _run(tmp_path, "fit", cfg, "out2")
    assert code == 1
    assert "together" in capsys.readouterr().err


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
    assert list(out.iterdir()) == []


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
