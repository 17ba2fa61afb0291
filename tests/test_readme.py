"""The README's examples run as written.

The ``simulate-kinetic`` config block goes through ``cli.main`` and the
library example is executed, so a README that drifts from the code fails
the suite instead of misleading a reader.
"""

from __future__ import annotations

import re
from pathlib import Path

from dispersim.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_kinetic_config_runs(tmp_path):
    (block,) = [b for b in _blocks("") if "kinetic.eta" in b]
    cfg = tmp_path / "kinetic.cfg"
    cfg.write_text(block)
    out = tmp_path / "out"
    assert main(["simulate-kinetic", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.txt", "manifest.txt", "sales_histogram.csv", "series.csv",
        "summary.txt",
    ]


def test_readme_library_example_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    sigma, ks = map(float, capsys.readouterr().out.split())
    assert abs(sigma - 0.125) < 0.01 and 0.0 <= ks < 0.05
