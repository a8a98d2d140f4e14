"""Robust system identification under sparse outliers and dense noise.

Parameters observed through a Toeplitz-structured regressor are estimated by
least-absolute-deviation (l1) minimization, which corrects gross outliers
that break least squares.  The package also certifies which outlier supports
are correctable and computes the analytic recoverable-fraction thresholds.
Each module's ``__all__`` is the one list of its public names; the package
exports all of them.
"""

__version__ = "0.1.0"

from . import cert, errors, harness, matgen, solver, threshold
from .errors import *
from .matgen import *
from .solver import *
from .cert import *
from .threshold import *
from .harness import *

__all__ = ["__version__", *errors.__all__, *matgen.__all__, *solver.__all__,
           *cert.__all__, *threshold.__all__, *harness.__all__]
