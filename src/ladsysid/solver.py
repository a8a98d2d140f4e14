"""Least-absolute-deviation and least-squares estimators.

``lad_estimate`` runs a primal simplex specialized to the LAD geometry: every
iterate is a vertex interpolating m observations (the basis rows), and a move
swaps one basis row along the steepest descent edge, passing through multiple
residual sign changes per step.  The line search along that edge walks the
breakpoints where residuals cross zero in increasing order until the slope
turns nonnegative; it rarely walks far, so the first breakpoints are selected
with ``np.partition`` and only they are sorted, the selection widening
geometrically when the walk needs more.  Nonbasic subgradient signs are carried
explicitly so rows whose residual is exactly zero keep a valid sign, and
Bland's smallest-index rule takes over while steps are degenerate.  Because
the noiseless outlier-correction problems this package targets are massively
degenerate at the optimum (every clean row has zero residual there), plain
pivoting can stall walking equivalent bases; at degenerate vertices the
solver therefore checks the exact subgradient optimality certificate -- a
small box-feasibility LP -- and exits as soon as the vertex is provably
optimal.  That LP has m equality rows, zero cost and the bounds |w| <= 1, so
``solve_lp`` answers it by phase 1 alone.

Each pivot solves three m x m systems (the prices, the edge direction and the
new vertex).  They go straight to the LAPACK gufunc behind ``np.linalg.solve``
(numpy's private ``_umath_linalg.solve1``), which gives the same bits without
the wrapper's per-call checks; the floating-point state that turns a singular
basis into ``LinAlgError`` is entered once per ``lad_estimate`` call rather than
once per system.  When numpy lacks that private gufunc the solves fall back to
``np.linalg.solve``.  The zero tolerance is ``ZERO_TOL * max|y|`` with no floor
at 1, so it shrinks with small data.  Both estimators raise ``DimensionError``
on a NaN or an infinity in H or y, and on an objective beyond the float range;
the least-squares norm is first recomputed scaled by max|r|, since its squares
overflow long before the norm does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularSystemError
from .lp import LpProblem, solve_lp
from .matgen import RegressorMatrix

try:
    from numpy.linalg._umath_linalg import solve1 as _solve1
except ImportError:  # private numpy module: ``_solve`` falls back to np.linalg.solve
    _solve1 = None

__all__ = ["Estimate", "lad_estimate", "ls_estimate"]

#: feasibility tolerance (absolute, scaled by data magnitude)
ZERO_TOL = 1e-9
#: optimality tolerance on the dual values (relative; duals live in [-1, 1])
OPT_TOL = 1e-8


@dataclass
class Estimate:
    """Estimator output: parameters, residuals and solve diagnostics."""

    x_hat: np.ndarray
    objective: float
    residuals: np.ndarray
    status: str          # optimal | iteration_limit | degenerate_fallback
    method: str          # lad | ls
    iterations: int = 0


def _as_matrix(H) -> np.ndarray:
    if isinstance(H, RegressorMatrix):
        return np.asarray(H.entries, dtype=float)
    A = np.asarray(H, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    return A


def _checked_inputs(H, y):
    """(A, y) as float arrays, after the shape and finiteness checks both
    estimators share."""
    A = _as_matrix(H)
    y = np.asarray(y, dtype=float)
    n, m = A.shape
    if y.shape != (n,):
        raise DimensionError(f"y has shape {y.shape}, expected ({n},)")
    if n < m or m < 1:
        raise DimensionError(f"need n >= m >= 1, got n={n}, m={m}")
    if not (np.isfinite(A).all() and np.isfinite(y).all()):
        raise DimensionError("H and y must be finite (found NaN or inf)")
    return A, y


def _finite(objective: float) -> float:
    """``objective``, or DimensionError when it lies beyond the float range."""
    if not np.isfinite(objective):
        raise DimensionError("the objective overflows the float range; rescale H or y")
    return objective


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


#: floating-point state for ``_solve``: the one np.linalg.solve enters per call,
#: entered once per ``lad_estimate`` instead.  A singular system makes the
#: gufunc return NaNs and raise the invalid flag, which then raises LinAlgError.
_SOLVE_ERRSTATE = dict(call=_raise_singular, invalid="call",
                       over="ignore", divide="ignore", under="ignore")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for float64 a (m x m) and b (m,), bit for bit.

    Runs the same LAPACK gufunc without the wrapper; a singular ``a`` raises
    LinAlgError only inside ``np.errstate(**_SOLVE_ERRSTATE)``.
    """
    if _solve1 is None:
        return np.linalg.solve(a, b)
    return _solve1(a, b, signature="dd->d")


def _initial_basis(A: np.ndarray) -> np.ndarray:
    """m linearly independent rows found by pivoted QR of the transpose."""
    n, m = A.shape
    _, rdiag, piv = scipy.linalg.qr(A.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rdiag))
    if diag.size < m or diag[m - 1] <= max(n, m) * np.finfo(float).eps * max(diag[0], 1e-300):
        raise SingularSystemError(
            f"regressor matrix is rank deficient (rank < m = {m})")
    return np.sort(piv[:m]).astype(int)


def _certify_vertex(A: np.ndarray, zero_mask: np.ndarray, grad_nz: np.ndarray) -> bool:
    """Exact subgradient optimality test at a (possibly degenerate) vertex.

    The vertex is optimal iff -grad_nz lies in the zonotope spanned by the
    zero-residual rows with coefficients in [-1, 1]; the membership check is
    a box-feasibility LP with m equality constraints, which ``solve_lp``
    answers by phase 1 alone.  The returned certificate is re-verified
    directly so the decision does not lean on the LP's internal tolerances.
    """
    At = A[zero_mask].T  # m x |T|
    target = -grad_nz
    res = solve_lp(LpProblem(
        c=np.zeros(At.shape[1]),
        a_eq=At,
        b_eq=target,
        bounds=np.broadcast_to([-1.0, 1.0], (At.shape[1], 2)),
    ))
    if res.status != "optimal":
        return False
    w = res.x
    scale = float(np.abs(target).max()) or 1.0
    return (np.abs(w).max(initial=0.0) <= 1.0 + 1e-9
            and float(np.abs(At @ w - target).max()) <= 1e-8 * scale)


def _leaving_index(t: np.ndarray, abs_hd: np.ndarray, slope: float, bland: bool,
                   ztol: float) -> int:
    """Position of the leaving row among the candidate rows (ascending row order).

    ``t`` holds each candidate's breakpoint along the edge and ``abs_hd`` its
    |h_i'd|; the directional derivative starts at ``slope`` (< 0) and rises by
    2|h_i'd| at each breakpoint.  Under Bland's rule the smallest row whose
    breakpoint is within ``ztol`` of the first one leaves.  Otherwise the line
    search stops at the first breakpoint, in (t, row) order, where the slope
    turns nonnegative (up to 1e-12), or at the last one.

    The search rarely walks far, so only a prefix is selected by
    ``np.partition`` and sorted; it holds every breakpoint tied with its
    largest and widens 4x until the search stops inside it.  The prefix is
    sorted by numpy's default (unstable, several times faster) argsort, and
    exact ties, rare off degenerate vertices, are then put in row order.  The
    slope is accumulated left to right, exactly as a walk over the fully
    sorted breakpoints would.
    """
    if bland:
        return int((t <= t.min() + ztol).argmax())
    k = 128
    while True:
        k = min(k, t.size)
        head = (t <= np.partition(t, k - 1)[k - 1]).nonzero()[0]
        order = t[head].argsort()
        ts = t[head[order]]
        if (ts[1:] == ts[:-1]).any():
            order = order[np.lexsort((order, ts))]
        head = head[order]
        stops = np.concatenate(([slope], 2.0 * abs_hd[head])).cumsum()[1:] >= -1e-12
        if stops.any():
            return int(head[stops.argmax()])
        if k == t.size:
            return int(head[-1])
        k *= 4


def lad_estimate(H, y, max_iter: int | None = None) -> Estimate:
    """Minimize the sum of absolute residuals ||y - Hx||_1.

    Returns a vertex solution: at least m residuals vanish when H has full
    column rank.  When the minimizer set is a face rather than a point, the
    returned vertex is one deterministic element of it.  A NaN or inf in H
    or y raises DimensionError, as does a residual sum beyond the float
    range; a basis that turns out singular raises numpy's LinAlgError.
    """
    A, y = _checked_inputs(H, y)
    n, m = A.shape
    if max_iter is None:
        max_iter = 200 * (n + m) + 1000

    basis = _initial_basis(A)
    ztol = ZERO_TOL * (float(np.abs(y).max()) or 1.0)

    # H and y are finite, so only a singular solve can raise the invalid flag
    # inside this block, and it turns into LinAlgError as in np.linalg.solve
    with np.errstate(**_SOLVE_ERRSTATE):
        AB = A[basis]
        x = _solve(AB, y[basis])
        r = y - A @ x
        sigma = np.where(r >= 0, 1.0, -1.0)
        zero_off = np.abs(r) <= ztol
        sig_nb = np.empty(n)

        bland = False
        checked_degenerate = -10**9
        status = "iteration_limit"
        it = 0

        while it < max_iter:
            it += 1
            # AB and zero_off (|r| <= ztol) carry over from the previous re-solve
            np.copyto(sig_nb, sigma)
            sig_nb[basis] = 0.0
            zero_off[basis] = False

            g = A.T @ sig_nb
            lam = _solve(AB.T, g)
            viol = np.abs(lam) - 1.0

            if bland:
                cand = (viol > OPT_TOL).nonzero()[0]
                optimal = cand.size == 0
            else:
                p = int(viol.argmax())
                optimal = viol[p] <= OPT_TOL
            if optimal:
                status = "optimal"
                break

            if zero_off.any() and (it - checked_degenerate) >= 25:
                checked_degenerate = it
                zero_mask = zero_off.copy()
                zero_mask[basis] = True
                nz = ~zero_mask
                grad_nz = A[nz].T @ np.sign(r[nz])
                if _certify_vertex(A, zero_mask, grad_nz):
                    status = "optimal"
                    break

            if bland:
                p = int(cand[0])  # basis kept sorted: first violation = smallest row
            s = 1.0 if lam[p] > 0 else -1.0

            e_p = np.zeros(m)
            e_p[p] = s
            d = _solve(AB, e_p)
            hd = A @ d
            hd[basis] = 0.0

            abs_hd = np.abs(hd)
            movable = abs_hd > 1e-11 * max(1.0, float(abs_hd.max()))
            # rows whose residual reaches zero along d: a nonzero residual of the
            # sign of hd, or a zero residual whose subgradient sign is that of hd
            # (it blocks at t = 0); off the basis sigma is sign(r) wherever
            # |r| > ztol and the subgradient sign elsewhere
            cand_rows = (movable & ((sigma > 0) == (hd > 0))).nonzero()[0]
            if cand_rows.size == 0:
                # cannot happen for full-rank LAD (objective grows along any ray)
                status = "degenerate_fallback"
                break
            t = r[cand_rows] / hd[cand_rows]
            t[zero_off[cand_rows]] = 0.0

            j = _leaving_index(t, abs_hd[cand_rows], 1.0 - abs(lam[p]), bland, ztol)
            leave = int(cand_rows[j])
            t_star = float(t[j])

            degenerate_step = t_star * abs_hd[leave] <= ztol
            bland = degenerate_step

            b_row = basis[p]
            basis[p] = leave
            basis.sort()
            sigma[b_row] = -s
            AB = A[basis]
            x = _solve(AB, y[basis])
            r = y - A @ x
            live = np.abs(r) > ztol
            np.copysign(1.0, r, out=sigma, where=live)
            zero_off = ~live

    residuals = y - A @ x
    return Estimate(
        x_hat=x,
        objective=_finite(float(np.abs(residuals).sum())),
        residuals=residuals,
        status=status,
        method="lad",
        iterations=it,
    )


def ls_estimate(H, y) -> Estimate:
    """Ordinary least squares via SVD (numpy lstsq), unique for full-rank H.

    A NaN or inf in H or y raises DimensionError, as does a residual norm
    beyond the float range.
    """
    A, y = _checked_inputs(H, y)
    m = A.shape[1]
    x, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < m:
        raise SingularSystemError(
            f"regressor matrix is rank deficient (rank {rank} < m = {m})")
    residuals = y - A @ x
    with np.errstate(over="ignore", invalid="ignore"):
        objective = float(np.linalg.norm(residuals))
        if not np.isfinite(objective):       # the squares overflowed: scale by max|r|
            top = float(np.abs(residuals).max())
            objective = top * float(np.linalg.norm(residuals / top))
    return Estimate(
        x_hat=x,
        objective=_finite(objective),
        residuals=residuals,
        status="optimal",
        method="ls",
    )
