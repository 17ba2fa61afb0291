"""The public names of ``dispersim``: what ``__all__`` exports and what it dropped."""

from __future__ import annotations

import importlib
import pkgutil

import dispersim
from dispersim import GriddedDistribution

#: The modules whose ``__all__`` the package does not re-export.
NOT_REEXPORTED = {"__main__", "cli", "config"}

MODULES = [importlib.import_module(f"dispersim.{info.name}")
           for info in pkgutil.iter_modules(dispersim.__path__)
           if info.name not in NOT_REEXPORTED]

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


def test_each_module_lists_only_names_it_defines():
    assert len(MODULES) == 10
    for module in MODULES:
        assert module.__all__, module.__name__
        foreign = [n for n in module.__all__ if getattr(module, n).__module__ != module.__name__]
        assert foreign == [], module.__name__


def test_the_package_exports_the_version_and_the_module_lists_once():
    names = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert len(names) == len(set(names))
    assert sorted(dispersim.__all__) == sorted(names)


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
