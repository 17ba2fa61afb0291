"""Kinetic market simulation and estimation toolkit for price dispersion.

The package models how a homogeneous good comes to sell at many prices at
once: closed-form dispersion laws and their static relations (``laws``,
``quasistatic``), a kinetic per-bin matching simulator and the stationary
self-consistency solver (``kinetic``, ``fixedpoint``), the multiplicative
mean-price ensemble (``meanprice``), estimators and goodness of fit
(``estimate``), transaction-data normalization (``dataio``), and a
reproducible command-line layer (``cli``).
"""

__version__ = "0.1.0"

# Each star import binds the names in its module's ``__all__``, and binds the
# module itself as an attribute of this package.
from .errors import *
from .grids import *
from .laws import *
from .quasistatic import *
from .kinetic import *
from .fixedpoint import *
from .meanprice import *
from .samples import *
from .estimate import *
from .dataio import *

__all__ = ["__version__", *errors.__all__, *grids.__all__, *laws.__all__,
           *quasistatic.__all__, *kinetic.__all__, *fixedpoint.__all__,
           *meanprice.__all__, *samples.__all__, *estimate.__all__, *dataio.__all__]
