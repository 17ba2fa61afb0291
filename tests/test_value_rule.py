"""The value rule on every public constructor and function with a scalar parameter.

Each parameter, and each input array that such a constructor takes, is tried
with NaN, +inf, -inf, the first value past its bound (the float just below a
closed bound, the bound itself where it is open) and, where a count is
expected, a non-integer. Each must be refused with a ``ValueError`` that
names the parameter, and with no warning on the way. The result records
built by the package's own functions (``SimResult``, ``EnsembleResult``,
``FixedPointResult``) carry no checks beyond ``FitResult``'s, and seeds go
to numpy's ``SeedSequence`` as given, so neither is listed.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from dispersim.dataio import NormalizedGroups, TransactionTable
from dispersim.estimate import FitResult
from dispersim.fixedpoint import fixed_point_solve
from dispersim.grids import GriddedDistribution, checked_value, uniform_grid
from dispersim.kinetic import InflowSpec, MarketState, initial_state, run, stationary_state
from dispersim.laws import LaplaceParams, LognormalParams, mixture_density
from dispersim.meanprice import SdeParams, walras_rhs
from dispersim.quasistatic import SupplyDemandCurves, quasi_static_density, total_sales_rate
from dispersim.samples import Sample

_LAW = LognormalParams(1.0, 0.3)
_GRID = np.linspace(0.0, 1.0, 5)
_ONES = np.ones(5)
_RAMP = np.linspace(0.0, 1.0, 5)
_MONOTONE = InflowSpec(1.0, 1.0, 0.5, 0.2)
_MATCHED = InflowSpec(1.0, 1.0, 0.5, 0.2, shape="matched")
_STATE = initial_state(_GRID, 1.0, _MONOTONE, 1.0, 1.0)
_UNIFORM = GriddedDistribution.from_density(_GRID, _ONES)
#: The smallest positive float, so that ``-_SUB`` is the first float below 0.
_SUB = 5e-324
_TINY = np.finfo(float).tiny


def _sde(**kw):
    return SdeParams(**{"omega0": 1.0, "noise_amp": 0.1, "dt": 0.1, "horizon": 1.0,
                        "n_paths": 2, **kw})


def _first(v, tail):
    """An array holding ``v`` first, then ``tail``."""
    return np.array([v, *tail])


def _groups(mu0=1.0, value=1.0, weight=1.0):
    return NormalizedGroups([("a",)], [mu0], [0, 2], [value, 1.0], [weight, 1.0])


# (entry point and parameter, call taking the value, first value past the
# bound or None where only finiteness is asked, and True where a count is
# expected)
_PARAMETERS = [
    ("LaplaceParams.mu", lambda v: LaplaceParams(v, 1.0, 0.5), np.nextafter(0.5, 0.0)),
    ("LaplaceParams.sigma", lambda v: LaplaceParams(1.0, v), np.nextafter(_TINY, 0.0)),
    ("LaplaceParams.mu_m", lambda v: LaplaceParams(1.0, 1.0, v), -_SUB),
    ("LognormalParams.gamma", lambda v: LognormalParams(v, 0.3), 0.0),
    ("LognormalParams.omega", lambda v: LognormalParams(1.0, v), 0.0),
    ("LognormalParams.shift", lambda v: LognormalParams(1.0, 0.3, v), -_SUB),
    ("mixture_density.floor", lambda v: mixture_density(1.0, _LAW, floor=v), -_SUB),
    ("mixture_density.conditional_scale",
     lambda v: mixture_density(1.0, _LAW, conditional_scale=v), 0.0),
    ("mixture_density.n_nodes", lambda v: mixture_density(1.0, _LAW, n_nodes=v), 8, True),
    ("mixture_density.rel_tol", lambda v: mixture_density(1.0, _LAW, rel_tol=v), 0.0),
    ("InflowSpec.demand_rate", lambda v: InflowSpec(v, 1.0, 0.5, 0.2), -_SUB),
    ("InflowSpec.supply_rate", lambda v: InflowSpec(1.0, v, 0.5, 0.2), -_SUB),
    ("InflowSpec.mu_ref", lambda v: InflowSpec(1.0, 1.0, v, 0.2), None),
    ("InflowSpec.sigma_ref", lambda v: InflowSpec(1.0, 1.0, 0.5, v), 0.0),
    ("InflowSpec.jitter", lambda v: InflowSpec(1.0, 1.0, 0.5, 0.2, jitter=v), -_SUB),
    ("MarketState.x_bins", lambda v: MarketState(_GRID, _first(v, _ONES[1:]), _ONES, 1.0),
     -_SUB),
    ("MarketState.z_bins", lambda v: MarketState(_GRID, _ONES, _first(v, _ONES[1:]), 1.0),
     -_SUB),
    ("MarketState.eta", lambda v: MarketState(_GRID, _ONES, _ONES, v), -_SUB),
    ("MarketState.clock", lambda v: MarketState(_GRID, _ONES, _ONES, 1.0, clock=v), None),
    ("MarketState.cumulative_sales",
     lambda v: MarketState(_GRID, _ONES, _ONES, 1.0, cumulative_sales=_first(v, _ONES[1:])),
     -_SUB),
    ("MarketState.cap_hits", lambda v: MarketState(_GRID, _ONES, _ONES, 1.0, cap_hits=v),
     -1, True),
    ("initial_state.eta", lambda v: initial_state(_GRID, v, _MONOTONE), -_SUB),
    ("initial_state.x_total", lambda v: initial_state(_GRID, 1.0, _MONOTONE, x_total=v),
     -_SUB),
    ("initial_state.z_total", lambda v: initial_state(_GRID, 1.0, _MONOTONE, z_total=v),
     -_SUB),
    ("stationary_state.eta", lambda v: stationary_state(_GRID, v, _MATCHED), 0.0),
    ("run.dt", lambda v: run(_STATE, _MONOTONE, dt=v, horizon=1.0), 0.0),
    ("run.horizon", lambda v: run(_STATE, _MONOTONE, dt=0.1, horizon=v),
     np.nextafter(0.1, 0.0)),
    ("SdeParams.omega0", lambda v: _sde(omega0=v), 0.0),
    ("SdeParams.noise_amp", lambda v: _sde(noise_amp=v), -_SUB),
    ("SdeParams.dt", lambda v: _sde(dt=v), 0.0),
    ("SdeParams.horizon", lambda v: _sde(horizon=v), np.nextafter(0.1, 0.0)),
    ("SdeParams.n_paths", lambda v: _sde(n_paths=v), 0, True),
    ("walras_rhs.mu", lambda v: walras_rhs(v, 0.5, 1.0, 2.0, 1.0), np.nextafter(0.5, 0.0)),
    ("walras_rhs.mu_m", lambda v: walras_rhs(1.0, v, 1.0, 2.0, 1.0), None),
    ("walras_rhs.gain", lambda v: walras_rhs(1.0, 0.5, v, 2.0, 1.0), -_SUB),
    ("walras_rhs.demand_rate", lambda v: walras_rhs(1.0, 0.5, 1.0, v, 1.0), -_SUB),
    ("walras_rhs.supply_rate", lambda v: walras_rhs(1.0, 0.5, 1.0, 2.0, v), -_SUB),
    ("total_sales_rate.eta", lambda v: total_sales_rate(v, 1.0, 1.0, 1.0), -_SUB),
    ("total_sales_rate.x_total", lambda v: total_sales_rate(1.0, v, 1.0, 1.0), -_SUB),
    ("total_sales_rate.z_total", lambda v: total_sales_rate(1.0, 1.0, v, 1.0), -_SUB),
    ("total_sales_rate.sigma_norm", lambda v: total_sales_rate(1.0, 1.0, 1.0, v), -_SUB),
    ("SupplyDemandCurves.x_units",
     lambda v: SupplyDemandCurves(_GRID, _first(v, _RAMP[:0:-1]), _RAMP), -_SUB),
    ("SupplyDemandCurves.z_units",
     lambda v: SupplyDemandCurves(_GRID, _RAMP[::-1], _first(v, _RAMP[1:])), -_SUB),
    ("from_books.x_total",
     lambda v: SupplyDemandCurves.from_books(_GRID, _RAMP, _RAMP, x_total=v), -_SUB),
    ("from_books.z_total",
     lambda v: SupplyDemandCurves.from_books(_GRID, _RAMP, _RAMP, z_total=v), -_SUB),
    ("quasi_static_density.supply_cumulative",
     lambda v: quasi_static_density(_first(v, _RAMP[1:]), _RAMP, _GRID), None),
    ("quasi_static_density.demand_cumulative",
     lambda v: quasi_static_density(_RAMP, _first(v, _RAMP[1:]), _GRID), None),
    ("fixed_point_solve.init",
     lambda v: fixed_point_solve(_GRID, _first(v, _ONES[1:]), tol=0.5), -_SUB),
    ("fixed_point_solve.tol", lambda v: fixed_point_solve(_GRID, tol=v), 0.0),
    ("fixed_point_solve.max_iter", lambda v: fixed_point_solve(_GRID, max_iter=v), -1, True),
    ("FitResult.ks_distance", lambda v: FitResult("shifted-lognormal", _LAW, 0.0, v, 2), -_SUB),
    ("FitResult.n", lambda v: FitResult("shifted-lognormal", _LAW, 0.0, 0.1, v), 0, True),
    ("Sample.values", lambda v: Sample(_first(v, [1.0])), None),
    ("Sample.weights", lambda v: Sample([1.0, 2.0], [v, 1.0]), 0.0),
    ("TransactionTable.price",
     lambda v: TransactionTable(["a"], ["m"], ["q"], [v], [1.0]), 0.0),
    ("TransactionTable.quantity",
     lambda v: TransactionTable(["a"], ["m"], ["q"], [1.0], [v]), 0.0),
    ("NormalizedGroups.mu0", lambda v: _groups(mu0=v), 0.0),
    ("NormalizedGroups.values", lambda v: _groups(value=v), 0.0),
    ("NormalizedGroups.weights", lambda v: _groups(weight=v), 0.0),
    ("GriddedDistribution.density",
     lambda v: GriddedDistribution(_GRID, _first(v, _ONES[1:])), None),
    ("GriddedDistribution.quantile.q", lambda v: _UNIFORM.quantile(v), -_SUB),
    ("uniform_grid.n_points", lambda v: uniform_grid(0.0, 1.0, v), 1, True),
]

def _cases():
    for label, call, edge, *count in _PARAMETERS:
        name = label.rpartition(".")[2]
        values = [np.nan, np.inf, -np.inf] + ([] if edge is None else [edge])
        if count:
            values.append(edge + 1.5)
        for value in values:
            yield pytest.param(call, name, value, id=f"{label}={value!r}")


@pytest.mark.parametrize("call, name, value", list(_cases()))
def test_every_parameter_refuses_a_value_past_its_rule_by_name_without_warning(call, name,
                                                                               value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(value)
    assert caught == []


def test_the_value_rule_states_the_parameter_and_the_rule():
    assert checked_value("mu_ref", 1.5).tolist() == 1.5
    assert checked_value("n_paths", np.int64(3), 1, count=True) == 3
    assert checked_value("weights", [], 0.0, strict=True).size == 0
    for value, low, strict, message in [
        (np.nan, 0.0, True, "sigma must be positive and finite, got nan"),
        (-1.0, 0.0, False, "sigma must be nonnegative and finite, got -1.0"),
        (-np.inf, -np.inf, False, "sigma must be finite, got -inf"),
        ([1.0, np.inf, -2.0], 0.0, False, "sigma must be nonnegative and finite, got -2.0"),
        ([1.0, np.inf], 0.0, False, "sigma must be nonnegative and finite, got inf"),
        (0.5, 1.0, False, "sigma must be finite and at least 1.0, got 0.5"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            checked_value("sigma", value, low, strict=strict)
    with pytest.raises(ValueError, match="^horizon must be finite and at least dt, got 0.5$"):
        checked_value("horizon", 0.5, 1.0, low_name="dt")
    with pytest.raises(ValueError, match="^n must be an integer at least 1, got 2.5$"):
        checked_value("n", 2.5, 1, count=True)
