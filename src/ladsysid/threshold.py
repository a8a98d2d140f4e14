"""Recoverability thresholds from the entropy/Chernoff inequality.

``strong_threshold`` computes, for each regressor width m, the largest
outlier fraction beta for which the governing inequality can be made
negative by some (mu, delta) certificate: below that fraction, every
outlier support of size beta*n is simultaneously correctable by the
l1 estimator with probability approaching one.

The search needs the inequality's minimum over the (mu, delta) grid at
each trial beta.  Below 1/(2m-1) the tail bracket enters with a positive
coefficient, so that minimum is exactly the value at each mu's smallest tail
bracket (rounded + and x by a positive number are monotone), and the full
grid is evaluated once, at beta*, for the witness.

The normal CDF is evaluated through the complementary error function
``_native.erfc``, Phi(t) = erfc(-t/sqrt(2))/2, accurate to a few ulp over
the whole real line; the log Gaussian tail switches to the standard
asymptotic expansion where erfc would underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._native import erfc
from .errors import ThresholdSearchError

__all__ = [
    "normal_cdf",
    "normal_sf",
    "log_normal_sf",
    "entropy",
    "threshold_inequality",
    "strong_threshold",
    "bernoulli_row_bounds",
    "ThresholdResult",
]

_SQRT2 = np.sqrt(2.0)
_LOG2 = np.log(2.0)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
#: strong_threshold's mu, delta and coarse beta grid sizes, and its bisection width
_MU_POINTS = 200
_DELTA_POINTS = 99
_COARSE_POINTS = 200
_BETA_TOL = 1e-6


def normal_cdf(t):
    """Standard Gaussian CDF Phi(t), scalar or array."""
    out = 0.5 * erfc(-np.asarray(t, dtype=float) / _SQRT2)
    return float(out) if np.isscalar(t) else out


def normal_sf(t):
    """Upper tail 1 - Phi(t) without cancellation for large t."""
    out = 0.5 * erfc(np.asarray(t, dtype=float) / _SQRT2)
    return float(out) if np.isscalar(t) else out


def log_normal_sf(t):
    """log(1 - Phi(t)), stable for arbitrarily large t.

    Up to t = 36 the erfc value is exact and well above the underflow
    threshold; beyond that the asymptotic series
    Q(t) = phi(t)/t * (1 - 1/t^2 + 3/t^4 - 15/t^6 + 105/t^8 - ...)
    is accurate to better than 1e-12 relative.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(arr)
    small = arr <= 36.0
    out[small] = np.log(0.5 * erfc(arr[small] / _SQRT2))
    big = arr[~small]
    if big.size:
        inv2 = 1.0 / (big * big)
        series = 1.0 + inv2 * (-1.0 + inv2 * (3.0 + inv2 * (-15.0 + inv2 * 105.0)))
        out[~small] = -0.5 * big * big - _LOG_SQRT_2PI - np.log(big) + np.log(series)
    return float(out[0]) if np.isscalar(t) else out.reshape(np.shape(t))


def entropy(beta):
    """Natural-log binary entropy, defined as 0 at beta = 0 and beta = 1."""
    arr = np.atleast_1d(np.asarray(beta, dtype=float))
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("entropy requires beta in [0, 1]")
    out = np.zeros_like(arr)
    inner = (arr > 0) & (arr < 1)
    b = arr[inner]
    out[inner] = -b * np.log(b) - (1 - b) * np.log(1 - b)
    return float(out[0]) if np.isscalar(beta) else out.reshape(np.shape(beta))


def _phi_bracket(m, mu):
    """log 2 + m mu^2/2 + log Phi(mu sqrt(m)); log Phi via log1p of the tail."""
    mu = np.asarray(mu, dtype=float)
    return _LOG2 + m * mu**2 / 2.0 + np.log1p(-normal_sf(mu * np.sqrt(m)))


def _tail_bracket(mu, delta):
    """log 2 + mu^2 (1-delta)^2/2 + log(1 - Phi(mu (1-delta)))."""
    arg = np.asarray(mu, dtype=float) * (1.0 - np.asarray(delta, dtype=float))
    return _LOG2 + arg**2 / 2.0 + log_normal_sf(arg)


def _lhs(beta, m, pos, tail):
    """The inequality from its brackets: pos = _phi_bracket, tail = _tail_bracket."""
    return entropy(beta) + m * beta * pos + (1.0 / (2 * m - 1) - beta) * tail


def threshold_inequality(beta: float, m: int, mu, delta):
    """Value of the recoverability inequality; negative certifies beta.

    ``mu`` and ``delta`` may be broadcastable arrays; ``beta`` is scalar.
    """
    if not 0 < beta < 1:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    mu_a = np.asarray(mu, dtype=float)
    dl_a = np.asarray(delta, dtype=float)
    if np.any(mu_a <= 0):
        raise ValueError("mu must be > 0")
    if np.any(dl_a <= 0) or np.any(dl_a >= 1):
        raise ValueError("delta must lie in (0, 1)")
    out = _lhs(beta, m, _phi_bracket(m, mu_a), _tail_bracket(mu_a, dl_a))
    return float(out) if (np.isscalar(mu) and np.isscalar(delta)) else out


@dataclass
class ThresholdResult:
    m: int
    beta_star: float
    mu: float
    delta: float
    lhs_value: float


def strong_threshold(m: int) -> ThresholdResult:
    """Largest certified outlier fraction beta*(m) with its (mu, delta) witness.

    Searches mu over a logarithmic grid on [1e-2, 1e2] and delta over a
    uniform grid on [0.01, 0.99], brackets beta on a geometric coarse grid
    and bisects to ``_BETA_TOL``.  The search is confined to
    beta < 1/(2m - 1): beyond that the inequality's clean-row count is
    nonpositive and the bound is vacuous.

    On that range the tail bracket's coefficient 1/(2m-1) - beta is
    positive, so for each mu the inequality is nondecreasing in the tail
    bracket, and so is its rounded value: rounded + and x by a positive
    number are monotone.  The grid minimum over delta is therefore exactly
    the value at the smallest tail bracket of that mu, and the search runs
    on one value per mu.  Only the witness comes from the full (mu, delta)
    grid at beta*, with the first grid minimum in row-major order.
    """
    if not 1 <= m <= 50:
        raise ValueError(f"m must lie in 1..50, got {m}")
    mu_grid = np.logspace(-2, 2, _MU_POINTS)
    dl_grid = np.linspace(0.01, 0.99, _DELTA_POINTS)
    pos = _phi_bracket(m, mu_grid)                            # mu
    tail = _tail_bracket(mu_grid[:, None], dl_grid[None, :])  # mu x delta
    tail_min = tail.min(axis=1)                               # mu
    beta_max = 1.0 / (2 * m - 1) * (1.0 - 1e-9)

    coarse = np.geomspace(1e-7, beta_max, _COARSE_POINTS)
    neg = _lhs(coarse[:, None], m, pos, tail_min).min(axis=1) < 0
    if not neg.any():
        raise ThresholdSearchError(
            f"no (beta, mu, delta) with a negative inequality value for m={m}; "
            "the search grid is misconfigured")
    # hi is the next coarse point, not negative by the same arithmetic, or
    # beta_max (geomspace ends there exactly) when all of them are negative
    last = int(np.nonzero(neg)[0].max())
    lo = coarse[last]
    hi = coarse[last + 1] if last + 1 < _COARSE_POINTS else beta_max
    while hi - lo > _BETA_TOL:
        mid = 0.5 * (lo + hi)
        if _lhs(mid, m, pos, tail_min).min() < 0:
            lo = mid
        else:
            hi = mid

    beta_star = lo
    vals = _lhs(beta_star, m, pos[:, None], tail)
    i_mu, i_dl = np.unravel_index(int(np.argmin(vals)), vals.shape)
    return ThresholdResult(
        m=int(m),
        beta_star=float(beta_star),
        mu=float(mu_grid[i_mu]),
        delta=float(dl_grid[i_dl]),
        lhs_value=float(vals.min()),
    )


def bernoulli_row_bounds(m: int):
    """Per-row bounds (1/(2 sqrt(m)), sqrt(m)) on E|<z, h>| for +/-1 inputs."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return 1.0 / (2.0 * np.sqrt(m)), float(np.sqrt(m))
