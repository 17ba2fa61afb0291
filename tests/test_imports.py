"""scipy is not a runtime dependency: no subcommand loads it, or needs it.

Each test starts a fresh interpreter with ``PYTHONPATH=src``, so modules
that this test session has already imported (scipy among them) cannot hide
an import. The child imports ``dispersim`` and ``dispersim.cli``, runs the
given ``cli.main`` calls, and reports the scipy modules loaded after each.
With ``block`` it first sets ``sys.modules["scipy"] = None``, so that any
attempt to import scipy raises, as it would where scipy is not installed.
These tests need only numpy, pytest and hypothesis.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dispersim.dataio import write_sample
from dispersim.samples import Sample

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """\
import json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = None
import dispersim, dispersim.cli

def scipy_modules():
    return sorted(m for m, module in sys.modules.items()
                  if module is not None and (m == "scipy" or m.startswith("scipy.")))

report = {"import": scipy_modules()}
for name, command, config in json.loads(sys.argv[1]):
    code = dispersim.cli.main([command, config, "--out", name])
    report[name] = [code, scipy_modules()]
print(json.dumps(report))
"""

CONFIGS = {
    "mixture": "grid.min = 0.2\ngrid.max = 3.0\ngrid.points = 11\n"
               "mixture.gamma = 1.0\nmixture.omega = 0.3\n",
    "fixed-point": "grid.min = 0\ngrid.max = 2\ngrid.points = 51\nfixedpoint.tol = 1e-2\n",
    "simulate-kinetic": "grid.min = 0\ngrid.max = 2\ngrid.points = 21\n"
                        "kinetic.eta = 1.0\nkinetic.dt = 0.01\nkinetic.horizon = 0.1\n"
                        "kinetic.demand_rate = 10\nkinetic.supply_rate = 10\n"
                        "kinetic.mu_ref = 1.0\nkinetic.sigma_ref = 0.2\n",
    "simulate-meanprice": "sde.omega0 = 0.41\nsde.noise_amp = 0.03\nsde.dt = 0.25\n"
                          "sde.horizon = 1.0\nsde.n_paths = 4\nsde.store_paths = true\n",
    "normalize": "normalize.input = {dir}/transactions.csv\n",
    "fit-laplace": "fit.input = {dir}/sample.csv\nfit.family = laplace\n",
    "fit-shifted-lognormal": "fit.input = {dir}/sample.csv\nfit.family = shifted-lognormal\n",
}


def _child(tmp_path, names, block=False) -> dict:
    """Report of a fresh interpreter that runs the named configs in ``tmp_path``."""
    draws = 0.05 + np.exp(0.3 * np.random.default_rng(0).standard_normal(200))
    (tmp_path / "sample.csv").write_text(write_sample(Sample(draws)))
    (tmp_path / "transactions.csv").write_text(
        "good_id,market_id,quarter,price,quantity\n"
        "rice,n,2011Q1,1.0,1\nrice,s,2011Q1,2.0,3\nrice,e,2011Q1,1.5,2\n")
    plan = []
    for name in names:
        config = tmp_path / f"{name}.cfg"
        config.write_text(CONFIGS[name].format(dir=tmp_path))
        command = "fit" if name.startswith("fit-") else name
        plan.append((name, command, str(config)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    args = [json.dumps(plan), "block" if block else "allow"]
    done = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    assert _child(tmp_path, [])["import"] == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_subcommand_loads_scipy(tmp_path, name):
    code, loaded = _child(tmp_path, [name])[name]
    assert code == 0
    assert loaded == []


def test_every_subcommand_runs_where_scipy_cannot_be_imported(tmp_path):
    report = _child(tmp_path, sorted(CONFIGS), block=True)
    assert {name: report[name][0] for name in CONFIGS} == dict.fromkeys(CONFIGS, 0)
    assert (tmp_path / "fit-shifted-lognormal" / "fit.txt").read_text().startswith(
        "family = shifted-lognormal")
