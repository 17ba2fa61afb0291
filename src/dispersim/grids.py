"""Gridded probability distributions on a shared uniform price axis.

All continuum quantities in the model (sales dispersion, demand/supply
dispersions) are represented on a uniform price grid and integrated with the
trapezoidal rule, in numpy alone. A :class:`GriddedDistribution` holds the
grid and the density values, checks the normalization invariants on
construction, and derives its cumulative from the density on first use.

The module also holds the package's input rules, each stated once: the
value rule :func:`checked_value` for every parameter and input array, the
grid rule :func:`checked_grid`, the on-grid rule :func:`on_grid`, and the
step-count rule :func:`step_count`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError, ZeroMass

__all__ = ["GriddedDistribution", "uniform_grid"]

#: Tolerance on normalization and monotonicity of gridded distributions.
NORMALIZATION_TOL = 1e-9

#: Most bytes that a run's per-step arrays may take, checked before they exist.
STEP_BUDGET = 1 << 30


def checked_value(name: str, value, low: float = -math.inf, *, strict: bool = False,
                  count: bool = False, low_name: str | None = None):
    """The value rule: ``value`` if it is finite and at least ``low``, or above it if ``strict``.

    ``value`` is a scalar or an array and comes back as a float array. A
    ``count`` must also be an integer (``operator.index``) and comes back as
    an ``int``. Anything else is refused with a ``ValueError`` that names
    ``name`` and the rule and quotes the value, or an array's smallest or
    largest value, whichever breaks it; ``low_name`` stands for ``low`` in
    the message where given. NaN and infinities are refused whatever the
    bound. An array costs one ``isfinite`` pass where only finiteness is
    asked, and a ``min`` and a ``max`` pass otherwise.
    """
    if count:
        try:
            number = operator.index(value)
        except TypeError:
            number = None
        if number is None or number < low:
            raise ValueError(f"{name} must be an integer at least {low}, got {value!r}")
        return number
    array = np.asarray(value, dtype=float)
    if low == -math.inf and np.isfinite(array).all():
        return array
    lo, hi = array.min(initial=math.inf), array.max(initial=-math.inf)
    above_low = -math.inf < lo and (lo > low if strict else lo >= low)
    if above_low and hi < math.inf:
        return array
    if low == -math.inf:
        rule = "finite"
    elif low == 0.0 and low_name is None:
        rule = f"{'positive' if strict else 'nonnegative'} and finite"
    else:
        rule = f"finite and {'above' if strict else 'at least'} {low_name or repr(float(low))}"
    raise ValueError(f"{name} must be {rule}, got {float(hi if above_low else lo)!r}")


def step_count(dt: float, horizon: float, step_bytes: int = 0) -> int:
    """Whole steps of ``dt`` in ``horizon``: ``round(horizon / dt)``, at least 1.

    ``dt`` must be positive and ``horizon`` finite and at least ``dt``, which
    makes the quotient at least 1. A caller that holds ``step_bytes`` per
    step asks for the count before it allocates, and the count is refused
    when those bytes would pass :data:`STEP_BUDGET`, or when the quotient
    overflows the float range. Each refusal is a ``ValueError`` that names
    ``dt`` or ``horizon``.
    """
    checked_value("dt", dt, 0.0, strict=True)
    checked_value("horizon", horizon, dt, low_name="dt")
    steps = float(horizon) / float(dt)
    if steps == math.inf:
        raise ValueError(f"dt = {dt!r} is too small: horizon / dt overflows")
    if steps * step_bytes > STEP_BUDGET:
        raise ValueError(f"dt = {dt!r} makes {steps:.3g} steps of {step_bytes} bytes, "
                         f"past the {STEP_BUDGET}-byte budget of per-step arrays")
    return round(steps)


def uniform_grid(p_min: float, p_max: float, n_points: int) -> np.ndarray:
    """Uniform price grid with ``n_points`` nodes from ``p_min`` to ``p_max``."""
    if not p_max > p_min:
        raise ValueError(f"need p_max > p_min, got [{p_min}, {p_max}]")
    if not float(p_max) - float(p_min) < math.inf:
        raise ValueError(f"grid range [{p_min}, {p_max}] must have finite ends and span")
    return np.linspace(p_min, p_max, checked_value("n_points", n_points, 2, count=True))


def trapezoid(values: np.ndarray, grid: np.ndarray) -> float:
    """Trapezoidal integral of ``values`` over ``grid``."""
    return float(np.trapezoid(values, grid))


def trapezoid_areas(values: np.ndarray, steps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-interval trapezoid areas ``steps * (values[1:] + values[:-1]) / 2.0``, into ``out``.

    These are the terms ``np.trapezoid`` forms, in its order of operations,
    so ``np.add.reduce`` of them is its integral bit for bit. The halving is
    a multiply by 0.5, which is cheaper than a divide by 2.0. Both have the
    same exact result, the real number ``x / 2``, and IEEE arithmetic rounds
    that one result to the same float for every ``x``: subnormals (where
    halving rounds), infinities and NaN included.
    """
    np.add(values[1:], values[:-1], out=out)
    np.multiply(steps, out, out=out)
    return np.multiply(out, 0.5, out=out)


def running_trapezoid(values: np.ndarray, steps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral of ``values``, from 0, into ``out``.

    ``steps`` are the grid's steps. The areas are formed in ``out[1:]`` and
    summed there in place, so a caller that keeps ``steps`` and ``out``
    across calls, as the fixed-point loop does, allocates no array.
    """
    np.cumsum(trapezoid_areas(values, steps, out[1:]), out=out[1:])
    out[0] = 0.0
    return out


def cumulative_trapezoid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral of ``values`` over ``grid``, starting at 0.

    Bit for bit what ``scipy.integrate.cumulative_trapezoid(values, grid,
    initial=0.0)`` returns, without importing scipy. It is one call of
    :func:`running_trapezoid`, the running integral that the fixed-point
    loop also runs on its own steps and buffers.
    """
    values = np.asarray(values, dtype=float)
    return running_trapezoid(values, np.diff(grid), np.empty(values.shape))


def checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array; ``ValueError`` unless it is a grid.

    A grid is 1-D with at least 2 nodes that strictly increase, and its
    span ``grid[-1] - grid[0]`` is finite, so every node and step is too.
    The nodes are compared, not subtracted, and the span is taken in Python
    floats, so a grid such as ``[-1.7e308, 0, 1.7e308]`` is refused here
    rather than warned about. Every gridded entry point of the package
    checks its grid with this one rule, and the arrays laid on it with
    :func:`on_grid`.
    """
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim == 1 and grid.size >= 2 and np.all(grid[1:] > grid[:-1])
            and float(grid[-1]) - float(grid[0]) < math.inf):
        return grid
    raise ValueError("grid must be 1-D and strictly increasing, with at least 2 points "
                     "and finite steps and span")


def on_grid(grid: np.ndarray, *arrays) -> list[np.ndarray]:
    """``arrays`` as float arrays; ``ValueError`` unless each has ``grid``'s shape."""
    arrays = [np.asarray(array, dtype=float) for array in arrays]
    for array in arrays:
        if array.shape != grid.shape:
            raise ValueError(f"an array of shape {array.shape} must match the grid shape "
                             f"{grid.shape}")
    return arrays


@dataclass(frozen=True, eq=False)
class GriddedDistribution:
    """A probability density on a strictly increasing grid.

    Invariants (checked on construction):
      * grid strictly increasing,
      * density finite and nonnegative with trapezoidal integral 1 within 1e-9.

    The cumulative is derived from the density on first use. Instances are
    treated as immutable values; do not mutate the arrays.
    """

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        grid = checked_grid(self.grid)
        (density,) = on_grid(grid, self.density)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", checked_value("density", density))
        if np.any(density < -NORMALIZATION_TOL):
            raise ValueError("density has negative values")
        total = trapezoid(density, grid)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density integrates to {total!r}, expected 1")

    @classmethod
    def from_density(cls, grid, density) -> "GriddedDistribution":
        """Normalize raw density values to unit trapezoidal mass.

        The grid is checked first, with the constructor's ``ValueError``. A
        density whose plain total underflows to 0 or overflows is divided
        by its largest value first. Raises :class:`~dispersim.errors.ModelError`
        if a value or the total is not finite, and its subclass
        :class:`~dispersim.errors.ZeroMass` if the clipped density
        integrates to zero.
        """
        grid = checked_grid(grid)
        (density,) = on_grid(grid, density)
        if not np.all(np.isfinite(density)):
            raise ModelError("density has non-finite values")
        density = np.clip(density, 0.0, None)
        with np.errstate(over="ignore"):  # a total that overflows is refused below
            total = trapezoid(density, grid)
            if not 0.0 < total < np.inf and np.max(density) > 0.0:
                # Rescale only a total that underflows or overflows, so every
                # other input keeps its exact output.
                density = density / np.max(density)
                total = trapezoid(density, grid)
        if not np.isfinite(total):
            raise ModelError(f"density total {total!r} is not finite")
        if total <= 0.0:
            raise ZeroMass("density has zero total mass")
        return cls(grid, density / total)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Trapezoidal cumulative of the density, from 0 to exactly 1."""
        cumulative = cumulative_trapezoid(self.density, self.grid)
        # Guard against roundoff pushing the last node off 1.
        return np.clip(cumulative / cumulative[-1], 0.0, 1.0)

    def quantile(self, q: float) -> float:
        """Price at cumulative level ``q`` by linear interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level q must be in [0, 1], got {q!r}")
        x = float(np.interp(q, self.cumulative, self.grid))
        if x == np.inf:
            # interp's slope overflows on a segment holding subnormal mass;
            # q lies strictly inside it, so take its fraction of the segment
            c, g = self.cumulative, self.grid
            j = int(np.searchsorted(c, q))
            t = (q - c[j - 1]) / (c[j] - c[j - 1])
            x = float(g[j - 1] + t * (g[j] - g[j - 1]))
        return x

    def median(self) -> float:
        return self.quantile(0.5)

