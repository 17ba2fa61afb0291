"""Kinetic market simulation and estimation toolkit for price dispersion.

The package models how a homogeneous good comes to sell at many prices at
once: closed-form dispersion laws and their static relations (``laws``,
``quasistatic``), a kinetic per-bin matching simulator and the stationary
self-consistency solver (``kinetic``, ``fixedpoint``), the multiplicative
mean-price ensemble (``meanprice``), estimators and goodness of fit
(``estimate``), transaction-data normalization (``dataio``), and a
reproducible command-line layer (``cli``).
"""

from importlib.metadata import PackageNotFoundError, version as _version

try:
    __version__ = _version("dispersim")
except PackageNotFoundError:
    __version__ = "0+unknown"

from .errors import (
    ConfigError,
    DegenerateSample,
    DispersimError,
    EmptyFeasibleShift,
    EmptyInput,
    InputError,
    MalformedRow,
    ModelError,
    NoIntercept,
    NonConvergence,
    QuadratureError,
    StabilityViolation,
    ZeroMass,
    ZeroSalesVolume,
)
from .grids import GriddedDistribution, uniform_grid
from .laws import (
    LaplaceParams,
    LognormalParams,
    laplace_cdf,
    laplace_density,
    laplace_eval,
    lognormal_cdf,
    lognormal_density,
    mixture_density,
)
from .quasistatic import (
    SupplyDemandCurves,
    intercept_price,
    quasi_static_density,
    total_sales_rate,
)
from .kinetic import (
    InflowSpec,
    MarketState,
    SimResult,
    initial_state,
    run,
    stationary_state,
)
from .fixedpoint import FixedPointResult, fixed_point_solve
from .meanprice import (
    EnsembleResult,
    SdeParams,
    implied_lognormal,
    simulate_mean_price,
    walras_rhs,
)
from .samples import Sample
from .estimate import (
    FitResult,
    fit_laplace,
    fit_shifted_lognormal,
    histogram,
    ks_statistic,
)
from .dataio import (
    NormalizedGroups,
    TransactionTable,
    group_std_devs,
    load_sample,
    load_transactions,
    normalize_prices,
    write_normalized_samples,
    write_sample,
)

__all__ = [
    "__version__",
    "ConfigError", "DegenerateSample", "DispersimError", "EmptyFeasibleShift",
    "EmptyInput", "InputError", "MalformedRow", "ModelError", "NoIntercept",
    "NonConvergence", "QuadratureError", "StabilityViolation", "ZeroMass",
    "ZeroSalesVolume",
    "GriddedDistribution", "uniform_grid",
    "LaplaceParams", "LognormalParams", "laplace_cdf", "laplace_density",
    "laplace_eval", "lognormal_cdf", "lognormal_density", "mixture_density",
    "SupplyDemandCurves", "intercept_price", "quasi_static_density",
    "total_sales_rate",
    "InflowSpec", "MarketState", "SimResult", "initial_state", "run",
    "stationary_state",
    "FixedPointResult", "fixed_point_solve",
    "EnsembleResult", "SdeParams", "implied_lognormal", "simulate_mean_price",
    "walras_rhs",
    "Sample",
    "FitResult", "fit_laplace", "fit_shifted_lognormal", "histogram",
    "ks_statistic",
    "NormalizedGroups", "TransactionTable", "group_std_devs", "load_sample",
    "load_transactions", "normalize_prices", "write_normalized_samples",
    "write_sample",
]
