"""Weighted observation samples shared by the readers and the estimators.

Sums of weights are taken on weights scaled by a power of two, by
:func:`unit_scaled`: the scaling is exact and commutes with rounding while
results stay normal, so such a sum has the bits of the plain one wherever
every plain partial sum is normal, and cannot overflow on the way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import checked_value

__all__ = ["Sample"]


def unit_scaled(x: np.ndarray, bounds=None) -> tuple[np.ndarray, np.ndarray]:
    """``x`` scaled per group by a power of two, and each group's exponent.

    Group ``i`` is ``x[bounds[i]:bounds[i + 1]]`` (the whole of ``x`` when
    ``bounds`` is None) and is divided by ``2 ** exponents[i]``, which puts
    its largest entry in ``[0.5, 1)``. The scaling is exact, and
    ``np.ldexp`` of a result and the exponents scales it back.
    """
    if bounds is None:
        bounds = np.array([0, x.size])
    exponents = np.frexp(np.maximum.reduceat(x, bounds[:-1]))[1]
    return np.ldexp(x, np.repeat(-exponents, np.diff(bounds))), exponents


@dataclass(frozen=True, eq=False)
class Sample:
    """Observations with positive weights (unit weights when omitted).

    Weights carry transaction quantities through the estimators so that a
    row covering ten units counts ten times a single-unit row. A sample may
    be empty (for instance when every group was skipped upstream); the fit
    operations reject empty samples themselves.
    """

    values: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        values = checked_value("values", self.values)
        if values.ndim != 1:
            raise ValueError("values must be a 1-D array")
        if self.weights is None:
            weights = np.ones_like(values)
        else:
            weights = checked_value("weights", self.weights, 0.0, strict=True)
            if weights.shape != values.shape:
                raise ValueError("weights must match values in shape")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return int(self.values.size)

    @property
    def total_weight(self) -> float:
        """Sum of the weights, taken scaled: ``inf`` past the float range."""
        if self.size == 0:
            return 0.0
        weights, (exponent,) = unit_scaled(self.weights)
        with np.errstate(over="ignore"):
            return float(np.ldexp(weights.sum(), exponent))

    def sorted(self) -> "Sample":
        """Copy ordered by value, weights carried along, in the stable order.

        Equal values keep their input order, so the permutation is that of
        ``argsort(kind="stable")``. Without ties (``-0.0`` ties ``0.0``) the
        sorted order is unique, and numpy's default sort, several times
        faster on large samples, finds it; only a sample with ties is
        sorted again, stably.
        """
        order = np.argsort(self.values)
        values = self.values[order]
        if np.any(values[1:] == values[:-1]):
            order = np.argsort(self.values, kind="stable")
            values = self.values[order]
        return Sample(values=values, weights=self.weights[order])
