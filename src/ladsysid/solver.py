"""Least-absolute-deviation and least-squares estimators.

``lad_estimate`` runs a primal simplex specialized to the LAD geometry: every
iterate is a vertex interpolating m observations (the basis rows), and a move
swaps one basis row along the steepest descent edge, passing through multiple
residual sign changes per step.  The line search along that edge walks the
breakpoints where residuals cross zero in increasing order until the slope
turns nonnegative.  It rarely walks far: on a large candidate set a strided
sample of the breakpoints bounds a tie-closed prefix {t <= T} that very likely
holds the stop, only that prefix is sorted, and when the stop lies beyond T
the walk goes on over the rest from the prefix's last slope.  Nonbasic
subgradient signs are carried explicitly so rows whose residual is exactly
zero keep a valid sign, and Bland's smallest-index rule takes over while steps
are degenerate.  Because
the noiseless outlier-correction problems this package targets are massively
degenerate at the optimum (every clean row has zero residual there), plain
pivoting can stall walking equivalent bases; at degenerate vertices the
solver therefore checks the exact subgradient optimality certificate -- is
there a w with |w| <= 1 and A_Z'w = -grad? -- and exits as soon as the
vertex is provably optimal.  One m x m Gram solve, v = (A_Z'A_Z)^-1 (-grad),
decides nearly every check: the least-norm w = A_Z v answers yes when it
lies in the box, and v answers no, as a Farkas vector, when -grad.v exceeds
||A_Z v||_1 by more than the acceptance tolerances and a rounding term
allow.  Only the rest (about 2% of the checks in noiseless +-1 sweeps) go
to the box-feasibility LP, with m equality rows, zero cost and the bounds
|w| <= 1, which ``solve_lp`` answers by phase 1 alone.  A no is provably
the LP route's answer, and a yes needs w inside the box itself, with none of
the LP route's allowance, so the verdicts are those of the LP alone wherever
the LP finds a feasible point.

At large n a pivot is a few passes over the rows besides its three n x m
products (the prices ``A.T @ sigma``, the edge ``A @ d`` and the residuals
``A @ x``), and each per-row quantity is computed once, into buffers reused
across pivots: sigma is 0 on the basis rows, so the price product needs no
masked copy; the one product sigma * hd both selects the rows that cross zero
(it equals |hd| exactly where the signs agree) and weights the line search;
and the breakpoints come from one full-length divide.  The initial basis is one
pivoted QR by LAPACK ``geqp3``, without forming Q, retried on power-of-two
scaled columns only when its rank test fails; ``geqp3`` is bound from scipy's
``_flapack`` extension file (``_load_geqp3``), so importing this module does
not import scipy.  None of this changes a rounding: the estimates are bit for
bit those of a full sort per pivot.

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
overflow long before the norm does (``l2_norm``, which the harness's error norm
shares).  The vertex certificate scales each of its m rows by a power of two,
which is exact, so its absolute tolerances hold every row to its own scale
and LAD's verdicts do not change when columns of H are rescaled.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader

import numpy as np

from .errors import DimensionError, SingularSystemError
from .lp import solve_lp
from .matgen import RegressorMatrix

try:
    from numpy.linalg._umath_linalg import solve1 as _solve1
except ImportError:  # private numpy module: ``_solve`` falls back to np.linalg.solve
    _solve1 = None

_FLAPACK = "scipy.linalg._flapack"


def _load_geqp3():
    """LAPACK dgeqp3 from scipy's ``_flapack`` extension, loaded from its file.

    Importing ``scipy.linalg`` costs about 0.3 s (its array-API shim loads
    ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``), more than the rest of
    a sweep's start-up; the extension alone loads in about 10 ms and is
    the very module ``scipy.linalg.lapack`` wraps, so its dgeqp3 is the same
    function.  When the file cannot be found or loaded, the public import is
    used.
    """
    module = sys.modules.get(_FLAPACK) or _flapack_from_file()
    if module is None:
        from scipy.linalg.lapack import dgeqp3
        return dgeqp3
    return module.dgeqp3


def _flapack_from_file():
    """scipy's ``_flapack`` module, loaded without running ``scipy/__init__``
    or ``scipy/linalg/__init__`` and kept out of ``sys.modules`` (a later
    ``import scipy.linalg`` gets the same functions from the interpreter's
    cache of loaded extensions); None when no file is found or it fails to load."""
    spec = find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                try:
                    return module_from_spec(
                        spec_from_loader(_FLAPACK, ExtensionFileLoader(_FLAPACK, path)))
                except ImportError:
                    return None
                finally:
                    sys.modules.pop(_FLAPACK, None)   # loading it put it there
    return None


_geqp3 = _load_geqp3()

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
    """H as a float matrix (a vector is one column); DimensionError on a NaN
    or an infinity.  Both estimators and every certifier take H through here."""
    A = np.asarray(H.entries if isinstance(H, RegressorMatrix) else H, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if not np.isfinite(A).all():
        raise DimensionError("H must be finite (found NaN or inf)")
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
    if not np.isfinite(y).all():
        raise DimensionError("y must be finite (found NaN or inf)")
    return A, y


def _finite(objective: float) -> float:
    """``objective``, or DimensionError when it lies beyond the float range."""
    if not np.isfinite(objective):
        raise DimensionError("the objective overflows the float range; rescale H or y")
    return objective


def l2_norm(v: np.ndarray) -> float:
    """The Euclidean norm of v, without overflow: when the squares of a finite
    v overflow, it is recomputed scaled by max|v|."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(v))
        if np.isinf(norm) and np.isfinite(v).all():
            top = float(np.abs(v).max())
            norm = top * float(np.linalg.norm(v / top))
    return norm


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


def _unit_shift(size):
    """The power-of-two exponent that brings a positive ``size`` into [1, 2)
    (1 for a zero ``size``); np.ldexp by it is exact."""
    return 1 - np.frexp(size)[1]


def _independent_rows(A: np.ndarray):
    """m rows of A picked by geqp3 on its transpose, or None when the pivoted
    QR finds A rank deficient."""
    n, m = A.shape
    lwork = int(_geqp3(A.T, lwork=-1, overwrite_a=True)[3][0])
    qr, piv = _geqp3(A.T, lwork=lwork)[:2]
    diag = np.abs(np.diag(qr))
    if diag[m - 1] <= max(n, m) * np.finfo(float).eps * max(diag[0], 1e-300):
        return None
    return np.sort(piv[:m] - 1).astype(int)


def _initial_basis(A: np.ndarray) -> np.ndarray:
    """m linearly independent rows found by pivoted QR of the transpose.

    Calls LAPACK geqp3 directly, after the same workspace query that
    ``scipy.linalg.qr(pivoting=True)`` makes, so the pivots and R agree with it
    bit for bit; Q is never formed.  The query does not touch the matrix, so it
    may run on A itself; the factorization runs on a copy.  The rank test is
    relative to the largest column, so when it fails the QR is tried once more
    with each column scaled by the power of two that brings its max into
    [1, 2): that is exact and leaves every set of rows as independent as it
    was, and an input the first test passes never reaches it.
    """
    rows = _independent_rows(A)
    if rows is None:
        rows = _independent_rows(np.ldexp(A, _unit_shift(np.abs(A).max(axis=0))))
    if rows is None:
        raise SingularSystemError(
            f"regressor matrix is rank deficient (rank < m = {A.shape[1]})")
    return rows


def _accepted(At: np.ndarray, target: np.ndarray, w: np.ndarray, scale: float,
              box: float = 1.0 + 1e-9) -> bool:
    """Does w certify the vertex: |w| <= box and At w = target to within
    1e-8 * scale in every row?"""
    return bool(np.abs(w).max(initial=0.0) <= box
                and float(np.abs(At @ w - target).max()) <= 1e-8 * scale)


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _certify_vertex(A: np.ndarray, zero_mask: np.ndarray, grad_nz: np.ndarray) -> bool:
    """Exact subgradient optimality test at a (possibly degenerate) vertex.

    The vertex is optimal iff -grad_nz lies in the zonotope spanned by the
    zero-residual rows with coefficients in [-1, 1], i.e. iff some w with
    |w| <= 1 solves At w = target (At: the zero rows' transpose, m x p;
    target = -grad_nz).  A candidate w passes ``_accepted`` when
    max|w| <= 1 + 1e-9 and max|At w - target| <= 1e-8 * scale, with
    scale = max|target| (1 when target = 0).

    The tolerances are absolute, in the units of the largest row, so each
    row j of (At, target) is first scaled by the power of two that brings
    max|At_j| (|target_j| when At_j = 0) into [1, 2).  That is exact, it
    undoes any power-of-two scaling of H's columns, and it leaves a row of
    +-1 entries as it is (when every shift is 0 nothing is scaled).

    One m x m Gram solve, v = (At At')^-1 target and w = At' v, then decides
    nearly every check, in one direction or the other:

    - Witness.  w is the least-norm solution of At w = target.  When it lies
      in the box itself (max|w| <= 1, with no allowance) and passes the
      residual test, the vertex is optimal.  Without the allowance the
      witness never answers for a problem that is infeasible by less than
      1e-9, where phase 1 may find no point and the LP path says False.
    - Separator.  For any w' that ``_accepted`` passes, the identity
      target.v = w'.(At'v) + (target - At w').v gives
      target.v <= (1 + 1e-9) ||At'v||_1 + 1e-8 * scale * ||v||_1 up to
      rounding.  So when target.v exceeds that bound plus the rounding term
      below, no w' can be accepted and the vertex is not optimal; v is then
      a Farkas vector.  This holds for any v, however inaccurately it was
      solved.  In exact arithmetic the two sides are ||w||_2^2 and ||w||_1.
    - Fallback.  Otherwise, and when the Gram matrix is singular, the
      box-feasibility LP (m equality rows, zero cost, |w| <= 1) decides.
      ``solve_lp`` answers it by phase 1 alone, and its point must pass
      ``_accepted``, so the decision does not lean on the LP's internal
      tolerances.

    The rounding term.  Let u = eps/2, g_k = k u / (1 - k u), r_j = ||At_j||_1
    and S = sum_j |v_j| (r_j + |target_j|); these bounds hold for any order
    of summation, with or without FMA.  An accepted w' has |w'| <= 1 + 1e-9
    exactly, and its computed residual is within g_(p+1) ((1 + 1e-9) r_j +
    |target_j|) of the true one, so the true |(At w' - target)_j| is at most
    1e-8 * scale (1 + u) plus that much.  The computed w = fl(At'v) is
    within g_m sum_j |At_ji| |v_j| of At'v entrywise, so ||At'v||_1 <=
    ||w||_1 + g_m sum_j r_j |v_j|.  The computed target.v is within
    g_m sum_j |target_j| |v_j| of the true one.  These errors add up to at
    most (g_m + g_(p+1)) (1 + 1e-9) S.  The bound's own sums (p terms in
    ||w||_1, m in ||v||_1), products and additions, with the u of
    1e-8 * scale, change it by at most (m + p + 4) u relatively.  The term
    (m + p + 4) eps (2 S + bound), with S and the bound as computed, covers
    all of this at least twice over.  Gradual underflow adds less than
    u * tiny per product (additions of subnormals are exact); the residual's
    such errors are weighted by |v_j|, so (m + 2)(p + 2) tiny (1 + ||v||_1)
    covers them.  An overflow makes the bound infinite, so it never
    separates, and a NaN raises LinAlgError inside ``_SOLVE_ERRSTATE``; both
    go to the LP.
    """
    At = A.take(zero_mask.nonzero()[0], axis=0).T  # m x p
    target = -grad_nz
    # row maxima over a C-ordered |At|: each reduction then runs along memory
    sizes = np.abs(At, order="C").max(axis=1, initial=0.0).tolist()
    shift = [1 - math.frexp(size or abs(t))[1] for size, t in zip(sizes, target.tolist())]
    if any(shift):
        shift = np.array(shift)
        At = np.ldexp(At, shift[:, None])
        target = np.ldexp(target, shift)
    m, p = At.shape
    scale = float(np.abs(target).max()) or 1.0
    with np.errstate(**_SOLVE_ERRSTATE):
        try:
            v = _solve(At @ At.T, target)
            w = At.T @ v
            if _accepted(At, target, w, scale, box=1.0):
                return True
            av = np.abs(v)
            l1v = float(av.sum())
            bound = (1.0 + 1e-9) * float(np.abs(w).sum()) + 1e-8 * scale * l1v
            spread = float(av @ (np.abs(At).sum(axis=1) + np.abs(target)))
            slack = ((m + p + 4) * _EPS * (2.0 * spread + bound)
                     + (m + 2) * (p + 2) * _TINY * (1.0 + l1v))
            if float(target @ v) > bound + slack:
                return False
        except np.linalg.LinAlgError:
            pass    # a singular Gram matrix, or NaNs from a nearly singular one
    res = solve_lp(np.zeros(p), At, target, np.full(p, -1.0), np.ones(p))
    return res.status == "optimal" and _accepted(At, target, res.x, scale)


#: breakpoints sampled to bound the line search's prefix; at most twice as
#: many candidates are sorted whole
_SAMPLE = 512


def _prefix_bound(t: np.ndarray, rows: np.ndarray, w: np.ndarray, rise: float) -> float:
    """A breakpoint T such that the slope very likely rises by ``rise`` over
    {t <= T}, read off a strided sample of about ``_SAMPLE`` breakpoints whose
    weights stand for ``stride`` rows each, plus a few sample points for safety."""
    stride = t.size // _SAMPLE
    ts = t[::stride]
    order = ts.argsort()
    gained = w[rows[::stride][order]].cumsum()
    q = int(gained.searchsorted(rise / (2.0 * stride))) + 8
    return ts[order[q]] if q < ts.size else np.inf


def _leaving_index(t: np.ndarray, rows: np.ndarray, w: np.ndarray, slope: float,
                   bland: bool, ztol: float) -> tuple[int, float]:
    """The leaving row and its breakpoint.

    ``t`` holds each candidate's breakpoint along the edge, ``rows`` its row
    (ascending) and ``w[rows]`` its |h_i'd|; the directional derivative starts
    at ``slope`` (< 0) and rises by 2|h_i'd| at each breakpoint.  Under
    Bland's rule the smallest row whose breakpoint is within ``ztol`` of the
    first one leaves.  Otherwise the line search stops at the first
    breakpoint, in (t, row) order, where the slope turns nonnegative (up to
    1e-12), or at the last one.

    The search rarely walks far.  Beyond ``2 * _SAMPLE`` candidates it walks
    only the tie-closed prefix {t <= T}, with T from ``_prefix_bound``; when
    the stop lies beyond T it goes on over the rest in the same way, from the
    prefix's last slope.  Each prefix is sorted by numpy's default (unstable,
    several times faster) argsort, and exact ties, rare off degenerate
    vertices, are then put in row order.  The slope is accumulated left to
    right by a sequential cumsum, so every sum is the one a walk over the
    fully sorted breakpoints makes, and no breakpoint is sorted twice.
    """
    if bland:
        j = int((t <= t.min() + ztol).argmax())
        return int(rows[j]), float(t[j])
    while True:
        bound = np.inf
        if t.size > 2 * _SAMPLE:
            bound = _prefix_bound(t, rows, w, -slope)
            head = (t <= bound).nonzero()[0]
            head = head[t[head].argsort()]
        else:
            head = t.argsort()
        ts = t[head]
        if (ts[1:] == ts[:-1]).any():
            head = head[np.lexsort((head, ts))]
        rising = 2.0 * w[rows[head]]
        rising[0] += slope
        rising = rising.cumsum()
        stops = rising >= -1e-12
        i = int(stops.argmax())
        if stops[i] or head.size == t.size:
            j = head[i] if stops[i] else head[-1]
            return int(rows[j]), float(t[j])
        slope = rising[-1]
        rest = (t > bound).nonzero()[0]
        t, rows = t[rest], rows[rest]


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
        # per-row buffers, reused by every pivot
        r, hd, prod, quot = np.empty((4, n))
        cand, zero_off = np.empty((2, n), dtype=bool)
        np.subtract(y, np.matmul(A, x, out=r), out=r)
        # sigma: sign(r) off the basis where |r| > ztol, the subgradient sign
        # where |r| <= ztol, and 0 on the basis
        sigma = np.where(r >= 0, 1.0, -1.0)
        sigma[basis] = 0.0
        np.less_equal(np.abs(r), ztol, out=zero_off)
        zero_off[basis] = False
        has_zero = zero_off.any()

        bland = False
        checked_degenerate = -10**9
        status = "iteration_limit"
        it = 0

        while it < max_iter:
            it += 1
            g = A.T @ sigma
            lam = _solve(AB.T, g)
            viol = np.abs(lam) - 1.0

            if bland:
                violated = (viol > OPT_TOL).nonzero()[0]
                optimal = violated.size == 0
            else:
                p = int(viol.argmax())
                optimal = viol[p] <= OPT_TOL
            if optimal:
                status = "optimal"
                break

            if has_zero and (it - checked_degenerate) >= 25:
                checked_degenerate = it
                zero_mask = zero_off.copy()
                zero_mask[basis] = True
                nz = (~zero_mask).nonzero()[0]
                grad_nz = A.take(nz, axis=0).T @ np.sign(r[nz])
                if _certify_vertex(A, zero_mask, grad_nz):
                    status = "optimal"
                    break

            if bland:
                p = int(violated[0])  # basis kept sorted: first violation = smallest row
            s = 1.0 if lam[p] > 0 else -1.0

            e_p = np.zeros(m)
            e_p[p] = s
            d = _solve(AB, e_p)
            np.matmul(A, d, out=hd)
            hd[basis] = 0.0

            # rows whose residual reaches zero along d: sigma (+-1 off the
            # basis) agrees with the sign of hd, so sigma * hd = |hd|, above
            # a floor; a zero residual among them blocks at t = 0
            np.multiply(sigma, hd, out=prod)
            floor = 1e-11 * max(1.0, float(hd.max()), -float(hd.min()))
            cand_rows = np.greater(prod, floor, out=cand).nonzero()[0]
            if cand_rows.size == 0:
                # cannot happen for full-rank LAD (objective grows along any ray)
                status = "degenerate_fallback"
                break
            with np.errstate(invalid="ignore"):   # 0/0 off the candidates
                np.divide(r, hd, out=quot)
            t = quot[cand_rows]
            if has_zero:
                t[zero_off[cand_rows]] = 0.0

            leave, t_star = _leaving_index(t, cand_rows, prod, 1.0 - abs(lam[p]), bland, ztol)
            bland = t_star * prod[leave] <= ztol     # a degenerate step

            b_row = basis[p]
            basis[p] = leave
            basis.sort()
            sigma[b_row] = -s
            AB = A[basis]
            x = _solve(AB, y[basis])
            np.subtract(y, np.matmul(A, x, out=r), out=r)
            np.less_equal(np.abs(r, out=quot), ztol, out=zero_off)
            zero_off[basis] = False
            has_zero = zero_off.any()
            if has_zero:
                zero_rows = zero_off.nonzero()[0]
                kept = sigma[zero_rows]
            np.copysign(1.0, r, out=sigma)
            if has_zero:
                sigma[zero_rows] = kept
            sigma[basis] = 0.0

    with np.errstate(over="ignore"):
        objective = float(np.abs(r).sum())
    return Estimate(
        x_hat=x,
        objective=_finite(objective),
        residuals=r,
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
    with np.errstate(over="ignore"):
        residuals = y - A @ x
    objective = l2_norm(residuals)
    return Estimate(
        x_hat=x,
        objective=_finite(objective),
        residuals=residuals,
        status="optimal",
        method="ls",
    )
