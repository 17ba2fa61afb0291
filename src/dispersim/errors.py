"""Exception hierarchy shared across the package.

Two branches matter to callers. ``InputError`` covers everything wrong with
what the user handed in (files, rows, configuration) and maps to exit code 1
in the command-line layer. ``ModelError`` covers conditions arising inside
the model or its numerics (degenerate samples, failed convergence, violated
stability bounds) and maps to exit code 2.
"""

from __future__ import annotations


class DispersimError(Exception):
    """Base class for all package-specific errors."""


class InputError(DispersimError):
    """The provided input (file, row, or configuration) is unusable."""


class ConfigError(InputError):
    """A configuration file or value fails validation."""


class MalformedRow(InputError):
    """A data row cannot be parsed; carries the row number and reason."""

    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


class EmptyInput(InputError):
    """The input stream contains no data at all."""


class ModelError(DispersimError):
    """A model-level or numerical condition prevents a result."""


class ZeroSalesVolume(ModelError):
    """No price admits both willing buyers and willing sellers."""


class NoIntercept(ModelError):
    """The demand and supply curves do not cross on the grid."""


class StabilityViolation(ModelError):
    """The explicit integration step is too large for the matching rate."""


class ZeroMass(ModelError):
    """A density or an inflow shape carries no mass on the grid."""


class NonConvergence(ModelError):
    """An iteration hit its cap; carries the last observed gap."""

    def __init__(self, message: str, last_gap: float | None = None):
        self.last_gap = last_gap
        super().__init__(message)


class QuadratureError(ModelError):
    """Numerical integration failed its tolerance; carries what it reached."""

    def __init__(self, message: str, achieved: float | None = None):
        self.achieved = achieved
        super().__init__(message)


class DegenerateSample(ModelError):
    """A sample carries too little information for the requested estimate."""


class EmptyFeasibleShift(ModelError):
    """No candidate shift leaves every observation above the shift."""
