"""Traced memory budgets of the two data paths, per input row, and of
storing mean-price paths, per byte written.

Each budget is the ``tracemalloc`` peak above the level at the start of the
path, divided by the row count or the file size. The numbers held are the
input columns and the result; the budgets leave room for a few full-length
float arrays of scratch beside them, not for one Python object per row.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from dispersim.cli import atomic_write_text, main
from dispersim.dataio import (
    group_std_devs,
    load_sample,
    load_transactions,
    normalize_prices,
    write_normalized_samples,
)
from dispersim.estimate import fit_laplace, histogram
from dispersim.grids import uniform_grid


def _traced_peak(path) -> int:
    """Peak traced bytes above the start while ``path()`` runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        path()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_fitting_a_weighted_sample_peaks_under_56_bytes_a_row(tmp_path):
    rows = 1 << 20
    rng = np.random.default_rng(3)
    path = tmp_path / "sample.csv"
    values, weights = rng.laplace(1.0, 0.15, rows).tolist(), rng.integers(1, 6, rows).tolist()
    path.write_text("value,weight\n" + "".join(f"{v!r},{w}\n" for v, w in zip(values, weights)))
    del values, weights

    def fit():
        sample = load_sample(path)
        fit_laplace(sample)
        histogram(sample, uniform_grid(float(sample.values.min()),
                                       float(sample.values.max()), 201))

    # the loaded columns take 16 bytes a row
    assert _traced_peak(fit) <= 56 * rows


def test_normalizing_a_table_peaks_under_200_bytes_a_row(tmp_path):
    goods, markets, quarters, rows = 200, 10, 4, 200_000
    rng = np.random.default_rng(4)
    labels = [f"g{g:03d},m{m:02d},2011Q{q + 1}"
              for g in range(goods) for m in range(markets) for q in range(quarters)]
    group = np.sort(rng.integers(0, len(labels), rows)).tolist()
    price = np.exp(rng.normal(0.0, 1.0, rows)).tolist()
    quantity = rng.integers(1, 11, rows).tolist()
    path = tmp_path / "transactions.csv"
    path.write_text("good_id,market_id,quarter,price,quantity\n" + "".join(
        f"{labels[g]},{p!r},{q}\n" for g, p, q in zip(group, price, quantity)))
    del group, price, quantity

    def normalize():
        table = load_transactions(path)
        groups = normalize_prices(table, grouping="good+market+quarter")
        group_std_devs(groups)
        atomic_write_text(tmp_path / "normalized.csv", write_normalized_samples(groups))

    # the loaded columns take 40 bytes a row and the written text about 38
    assert _traced_peak(normalize) <= 200 * rows


def test_storing_mean_price_paths_peaks_under_2_5_times_the_file(tmp_path):
    config = tmp_path / "sde.cfg"
    config.write_text("sde.omega0 = 0.4\nsde.noise_amp = 0.001\nsde.dt = 0.001\n"
                      "sde.horizon = 1\nsde.n_paths = 500\nsde.store_paths = true\n")
    out = tmp_path / "out"
    peak = _traced_peak(lambda: main(["simulate-meanprice", str(config), "--out", str(out)]))
    # 500 paths of 1001 points: about 15.5 MB of text, held once as row
    # strings and once joined; the paths array adds 4 MB
    assert peak <= 2.5 * (out / "paths.csv").stat().st_size
