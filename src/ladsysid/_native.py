"""The compiled routines behind the estimator and the threshold analysis,
bound once at import: the one module that reaches past a public wrapper.
Each gives the bits of its public counterpart (``dgeqp3`` and ``erfc`` are
the very objects), so no result depends on which path bound it.

- ``solve(a, b)`` is ``np.linalg.solve`` for a float64 m x m ``a`` and an
  m-vector ``b``, bit for bit: the LAPACK gufunc behind it (numpy's private
  ``_umath_linalg.solve1``) without the wrapper's per-call checks, or
  ``np.linalg.solve`` itself when numpy lacks that gufunc.  The
  floating-point state that turns a singular system into ``LinAlgError`` is
  ``SOLVE_ERRSTATE``, which a caller enters once around many solves.
- ``dgeqp3`` is LAPACK's pivoted QR from scipy's ``linalg/_flapack``, the
  module ``scipy.linalg.lapack`` wraps.
- ``erfc`` is the ufunc from scipy's ``special/_special_ufuncs``, which
  ``scipy.special.erfc`` is.

Importing ``scipy.linalg`` or ``scipy.special`` costs about 0.3 s each
(their array-API shim loads ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma``), more than the rest of a sweep's start-up; the two extension
files load by themselves in a few ms (``_scipy_extension``), so no
``ladsysid`` subcommand imports a scipy Python module.  When a file cannot be
found or loaded, the public import is the fallback.
"""

from __future__ import annotations

import os
import sys
from functools import partial
from importlib import import_module
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

__all__ = ["SOLVE_ERRSTATE", "dgeqp3", "erfc", "solve"]


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


#: floating-point state for ``solve``: the one np.linalg.solve enters per call.
#: A singular system makes the gufunc return NaNs and raise the invalid flag,
#: which then raises LinAlgError.
SOLVE_ERRSTATE = dict(call=_raise_singular, invalid="call",
                      over="ignore", divide="ignore", under="ignore")

try:
    from numpy.linalg._umath_linalg import solve1
except ImportError:     # a private numpy module
    solve = np.linalg.solve
else:
    solve = partial(solve1, signature="dd->d")


def _scipy_extension(subpackage: str, module: str):
    """scipy's extension module ``scipy.<subpackage>.<module>``, loaded from its
    file without running ``scipy/__init__`` or the subpackage's, and kept out
    of ``sys.modules`` (a later public import gets the same functions from the
    interpreter's cache of loaded extensions); None when no file is found or
    it fails to load.  A module scipy has already imported is used as it is."""
    name = f"scipy.{subpackage}.{module}"
    if name in sys.modules:
        return sys.modules[name]
    scipy = find_spec("scipy")
    roots = [os.path.join(root, subpackage)
             for root in (scipy and scipy.submodule_search_locations) or ()]
    spec = PathFinder.find_spec(name, roots)
    if spec is None:
        return None
    try:
        return module_from_spec(spec)
    except ImportError:
        return None
    finally:
        sys.modules.pop(name, None)     # loading it put it there


def _scipy_routine(subpackage: str, module: str, name: str, public: str):
    """``name`` from ``_scipy_extension(subpackage, module)``, or from the public
    module ``public`` when that extension cannot load or lacks it (a scipy
    that defines ``name`` in another extension)."""
    found = getattr(_scipy_extension(subpackage, module), name, None)
    return found if found is not None else getattr(import_module(public), name)


dgeqp3 = _scipy_routine("linalg", "_flapack", "dgeqp3", "scipy.linalg.lapack")
erfc = _scipy_routine("special", "_special_ufuncs", "erfc", "scipy.special")
