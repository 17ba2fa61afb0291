"""scipy stays off the import path: only ``fit`` loads it, and only when used.

Each test starts a fresh interpreter with ``PYTHONPATH=src``, so modules
that this test session has already imported (scipy among them) cannot hide
an import. The child imports ``dispersim`` and ``dispersim.cli``, runs the
given ``cli.main`` calls, and reports the scipy modules loaded after each.
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
import dispersim, dispersim.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"import": scipy_modules()}
for command, config in json.loads(sys.argv[1]):
    code = dispersim.cli.main([command, config, "--out", command])
    report[command] = [code, scipy_modules()]
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
}


def _child(tmp_path, calls) -> dict:
    """Report of a fresh interpreter that runs ``calls`` in ``tmp_path``."""
    plan = []
    for command, text in calls:
        config = tmp_path / f"{command}.cfg"
        config.write_text(text)
        plan.append((command, str(config)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(plan)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    assert _child(tmp_path, [])["import"] == []


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_subcommands_other_than_fit_load_no_scipy(tmp_path, command):
    code, loaded = _child(tmp_path, [(command, CONFIGS[command])])[command]
    assert code == 0
    assert loaded == []


def test_shifted_lognormal_fit_loads_scipy_when_it_runs(tmp_path):
    draws = 0.05 + np.exp(0.3 * np.random.default_rng(0).standard_normal(200))
    (tmp_path / "sample.csv").write_text(write_sample(Sample(draws)))
    cfg = f"fit.input = {tmp_path / 'sample.csv'}\nfit.family = shifted-lognormal\n"
    report = _child(tmp_path, [("fit", cfg)])
    assert report["import"] == []
    code, loaded = report["fit"]
    assert code == 0
    assert "scipy.optimize" in loaded
    assert (tmp_path / "fit" / "fit.txt").read_text().startswith("family = shifted-lognormal")
