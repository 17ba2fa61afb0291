"""The public names of ``dispersim``: what ``__all__`` exports and what it dropped."""

from __future__ import annotations

import dispersim
from dispersim import GriddedDistribution

PUBLIC = [
    "ConfigError", "DegenerateSample", "DispersimError", "EmptyFeasibleShift",
    "EmptyInput", "EnsembleResult", "FitResult", "FixedPointResult",
    "GriddedDistribution", "InflowSpec", "InputError", "LaplaceParams",
    "LognormalParams", "MalformedRow", "MarketState", "ModelError", "NoIntercept",
    "NonConvergence", "NormalizedGroups", "QuadratureError", "Sample", "SdeParams",
    "SimResult", "StabilityViolation", "SupplyDemandCurves", "TransactionTable",
    "ZeroMass", "ZeroSalesVolume", "__version__", "fit_laplace",
    "fit_shifted_lognormal", "fixed_point_solve", "group_std_devs", "histogram",
    "implied_lognormal", "initial_state", "intercept_price", "ks_statistic",
    "laplace_cdf", "laplace_density", "laplace_eval", "load_sample",
    "load_transactions", "lognormal_cdf", "lognormal_density", "mixture_density",
    "normalize_prices", "quasi_static_density", "run", "simulate_mean_price",
    "stationary_state", "total_sales_rate", "uniform_grid", "walras_rhs",
    "write_normalized_samples", "write_sample",
]

DROPPED = [
    "floor_linearization_error", "laplace_moments", "lognormal_moments",
    "serialize_transactions", "sigma_from_mean",
]


def test_all_lists_exactly_the_public_names_once():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 56
    assert len(dispersim.__all__) == len(set(dispersim.__all__))
    assert sorted(dispersim.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in dispersim.__all__ if not hasattr(dispersim, name)]
    assert missing == []


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from dispersim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_dropped_names_are_gone():
    assert [name for name in DROPPED if hasattr(dispersim, name)] == []
    assert [m for m in ("cdf_at", "mean", "spacing") if hasattr(GriddedDistribution, m)] == []
