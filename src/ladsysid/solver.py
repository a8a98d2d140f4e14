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
to ``solve_lp``, which decides the same box feasibility by one l1 fit with
m - 1 unknowns: -grad lies in the zonotope {A_Z'w : |w| <= 1} iff
mu = min{||A_Z v||_1 : -grad.v = 1} >= 1, and the fit's dual, scaled by
1/mu, is the w that is then re-checked.  That dual is the one the fit's own
simplex stopped on, so the fit's vertex is not checked a second time.  A no
is provably the fallback's answer, and a yes needs w inside the box itself,
with none of its allowance, so the verdicts are those of the fallback alone
wherever it finds a point.  Each check returns its w with its verdict.

Every optimal LAD fit carries the dual certificate it stopped on,
``Estimate.dual``: a u with |u| <= 1 + OPT_TOL and H'u = 0, so that y'u
bounds ||y - Hz||_1 from below for every z, up to those tolerances.  At the
lambda test u is sigma off the basis and -lambda on it, and H'u = 0 up to
rounding.  At a degenerate vertex it is sign(r) off the zero rows and the
vertex check's w on them, and H'u = 0 to within that check's acceptance
test.  On the band route it is the band solve's u on the band and the
folded signs elsewhere.  Either way ||r||_1 - y'u is at most (2 + OPT_TOL)
times the l1 sum of the residuals within the zero tolerance, up to
rounding, so u proves the objective optimal to within that much.

At large n a pivot is a few passes over the rows besides its three n x m
products (the prices ``A.T @ sigma``, the edge ``A @ d`` and the residuals
``A @ x``), and each per-row quantity is computed once, into buffers reused
across pivots: sigma is 0 on the basis rows, so the price product needs no
masked copy; the one product sigma * hd both selects the rows that cross zero
(it equals |hd| exactly where the signs agree) and weights the line search;
and the breakpoints come from one full-length divide.  The initial basis is one
pivoted QR by LAPACK ``geqp3``, without forming Q, retried on power-of-two
scaled columns only when its rank test fails.  None of this changes a
rounding: on a matrix of one layout the estimates are bit for bit those of
a full sort per pivot.  The products run on A in the layout the solve is
handed: the caller's for the full simplex, column-major for the band
stage's pilot and band solves (below).

At large n, ``lad_estimate`` first tries a band of rows (Portnoy & Koenker,
"The Gaussian hare and the Laplacian tortoise", Statistical Science 12(4),
1997): an l1 fit is decided by the rows near it, and every other row enters
only through its sign.  With s = ceil(sqrt(m) n^(2/3)), it engages when the
band of b = 3s rows is at most n/2 (n of about 2,400 and up at m = 5) and
n m^2 >= 12,000, which binds at m <= 2, where the band pays off later.  It
fits the strided subsample of s evenly spread rows (no random draw) as a
pilot, stopped after ceil(0.2 m s^(1/3)) pivots (13 at n = 30,000), since
the pilot only picks the band and its start; keeps the b rows with the
smallest |y - A x_s|; folds every other row i into the fixed gradient
g0 = sum sign(r_i) a_i; and runs this simplex on the band, with g0 added to
its prices, from the pilot's basis.  Folded rows on the wrong side of the
band's basis B join the band and leave g0, and the band simplex resumes from
B (Portnoy and Koenker's repair), as long as the band stays within n/2 rows.
B is accepted only if, on all n rows, (a) every folded row keeps its sign,
(b) no residual off B is within the zero tolerance and (c)
max|lambda| < 1 - 1e-9 for lambda = A_B^-T A' sigma, with sigma = sign(r)
off B.  (a) is the test that the band problem was the right one.  (b) and
(c), taken with the true signs of all n rows, make B the unique and
nondegenerate optimum, which is the vertex the full simplex stops at too: it
stops at the first vertex whose |lambda| are all within 1 + OPT_TOL, and
only a near-tie, some |lambda| in (1, 1 + OPT_TOL] at another vertex on its
path, could stop it elsewhere (none was seen in the tests).  x, the
residuals and the objective are then computed by the same calls on the same
rows as the full simplex's, so they agree with it bit for bit.  Otherwise,
or when the subsample's first column has one magnitude (+-1 input, whose
subsample optimum had a dual at +-1 on every instance tried), when a pilot
that converged within its cap sits at a degenerate or non-strict optimum,
when a repair would take the band past n/2 rows, when a band solve ends
other than optimal (g0 can make the band unbounded), or when it raises a
typed error or LinAlgError, the full simplex runs from the geqp3 basis of all
n rows, as it did without the band stage.  ``Estimate.iterations`` counts
the pilot's and every band solve's pivots on the band route, and the full
simplex's otherwise.

The pilot and every band solve, repairs included, run on their rows
gathered into a column-major (Fortran-order) array, where each pivot's three
products take BLAS's long-vector kernels instead of one short dot product
per row (one OpenBLAS thread, 2-core x86-64 host, a 6,477-row band: 7.2
against 15.0 us for ``A @ d`` and 5.8 against 16.2 us for ``A.T @ sigma``).
Those products round differently from the C-ordered ones, but nothing of the
band path reaches x, the residuals or the objective except B, which (a)-(c)
fix: a path that rounds differently reaches the same B or declines to the
full simplex.  Only ``Estimate.iterations`` (when a tie falls the other way)
and the band rows of ``Estimate.dual`` depend on the layout; on 76
consistency-sweep instances (n = 3,000 to 30,000) the pivots were the same
and the dual moved by at most 5e-12.  The full simplex, the accept test and
every product over all n rows use the caller's A.

Each pivot solves three m x m systems (the prices, the edge direction and the
new vertex) with ``_native.solve``, inside one ``SOLVE_ERRSTATE`` per
``lad_estimate`` call rather than one per system.  The zero tolerance is
``ZERO_TOL * max|y|`` with no floor at 1, so it shrinks with small data.  Both
estimators raise ``DimensionError`` on a NaN or an infinity in H or y, and on
an objective beyond the float range; the least-squares norm is first recomputed
scaled by max|r|, since its squares overflow long before the norm does
(``l2_norm``, which the harness's error norm shares).  The vertex certificate
scales each of its m rows by a power of two, which is exact, so its absolute
tolerances hold every row to its own scale and LAD's verdicts do not change
when columns of H are rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._native import SOLVE_ERRSTATE, dgeqp3, solve
from .errors import DimensionError, LadSysIdError, SingularSystemError
from .matgen import RegressorMatrix, _count, _real

__all__ = ["Estimate", "lad_estimate", "ls_estimate"]

#: feasibility tolerance (absolute, scaled by data magnitude)
ZERO_TOL = 1e-9
#: optimality tolerance on the dual values (relative; duals live in [-1, 1])
OPT_TOL = 1e-8


@dataclass
class Estimate:
    """Estimator output: parameters, residuals and solve diagnostics.

    ``dual`` is an optimal LAD fit's dual certificate u (see the module
    docstring); None for LS and for a LAD fit that did not end optimal.
    """

    x_hat: np.ndarray
    objective: float
    residuals: np.ndarray
    status: str          # optimal | iteration_limit | degenerate_fallback
    method: str          # lad | ls
    iterations: int = 0
    dual: np.ndarray | None = None


def _as_matrix(H) -> np.ndarray:
    """H as a float matrix (a vector is one column); DimensionError on a
    complex dtype, a NaN or an infinity.  Both estimators and every certifier
    take H through here."""
    A = _real("H", H.entries if isinstance(H, RegressorMatrix) else H)
    if A.ndim == 1:
        A = A[:, None]
    if not np.isfinite(A).all():
        raise DimensionError("H must be finite (found NaN or inf)")
    return A


def _checked_inputs(H, y):
    """(A, y) as float arrays, after the shape and finiteness checks both
    estimators share."""
    A = _as_matrix(H)
    y = _real("y", y)
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


def _unit_shift(size):
    """The power-of-two exponent that brings a positive ``size`` into [1, 2)
    (1 for a zero ``size``); np.ldexp by it is exact."""
    return 1 - np.frexp(size)[1]


def _independent_rows(A: np.ndarray):
    """m rows of A picked by geqp3 on its transpose, or None when the pivoted
    QR finds A rank deficient."""
    n, m = A.shape
    lwork = int(dgeqp3(A.T, lwork=-1, overwrite_a=True)[3][0])
    qr, piv = dgeqp3(A.T, lwork=lwork)[:2]
    diag = np.abs(np.diag(qr))
    if diag[m - 1] <= max(n, m) * np.finfo(float).eps * max(diag[0], 1e-300):
        return None
    return np.sort(piv[:m] - 1).astype(int)


def _initial_basis(A: np.ndarray) -> np.ndarray:
    """m linearly independent rows found by pivoted QR of the transpose.

    Calls LAPACK geqp3 directly, after the same workspace query that the public
    pivoted QR, ``linalg.qr(pivoting=True)``, makes, so the pivots and R agree
    with it bit for bit; Q is never formed.  The query does not touch the
    matrix, so it may run on A itself; the factorization runs on a copy.  The
    rank test is relative to the largest column, so when it fails the QR is
    tried once more with each column scaled by the power of two that brings its
    max into [1, 2): that is exact and leaves every set of rows as independent
    as it was, and an input the first test passes never reaches it.
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


class _Verdict(int):
    """A box-feasibility verdict, as its truth value, with the w that passed
    ``_accepted`` (None on a no) and the pivots of the l1 fit behind it."""

    def __new__(cls, w: np.ndarray | None = None, iterations: int = 0):
        verdict = super().__new__(cls, w is not None)
        verdict.w, verdict.iterations = w, iterations
        return verdict


def _certify_vertex(A: np.ndarray, zero_mask: np.ndarray, grad_nz: np.ndarray) -> _Verdict:
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
      1e-9, which is left to the fallback alone.
    - Separator.  For any w' that ``_accepted`` passes, the identity
      target.v = w'.(At'v) + (target - At w').v gives
      target.v <= (1 + 1e-9) ||At'v||_1 + 1e-8 * scale * ||v||_1 up to
      rounding.  So when target.v exceeds that bound plus the rounding term
      below, no w' can be accepted and the vertex is not optimal; v is then
      a Farkas vector.  This holds for any v, however inaccurately it was
      solved.  In exact arithmetic the two sides are ||w||_2^2 and ||w||_1.
    - Fallback.  Otherwise, and when the Gram matrix is singular,
      ``solve_lp`` decides by an l1 fit, and its point must pass
      ``_accepted``, so the decision does not lean on the fit's tolerances.

    The verdict is a ``_Verdict``: its truth value, with the accepted w (in
    the order of the zero rows) on a yes.

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
    separates, and a NaN raises LinAlgError inside ``SOLVE_ERRSTATE``; both
    go to ``solve_lp``.
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
    with np.errstate(**SOLVE_ERRSTATE):
        try:
            v = solve(At @ At.T, target)
            w = At.T @ v
            if _accepted(At, target, w, scale, box=1.0):
                return _Verdict(w)
            av = np.abs(v)
            l1v = float(av.sum())
            bound = (1.0 + 1e-9) * float(np.abs(w).sum()) + 1e-8 * scale * l1v
            spread = float(av @ (np.abs(At).sum(axis=1) + np.abs(target)))
            slack = ((m + p + 4) * _EPS * (2.0 * spread + bound)
                     + (m + 2) * (p + 2) * _TINY * (1.0 + l1v))
            if float(target @ v) > bound + slack:
                return _Verdict()
        except np.linalg.LinAlgError:
            pass    # a singular Gram matrix, or NaNs from a nearly singular one
    return solve_lp(At, target)


def _collapsed_rows(h):
    """The nonzero rows of h that differ up to sign, each times its
    multiplicity: ||h z||_1 is their l1 sum for every z, as c |r'z| = |c r'z|.
    Also, for each row i of h, the sign s_i (0 on a zero row) and the index
    c_i of its collapsed row, so that h_i = s_i r_(c_i)."""
    nonzero = h.any(axis=1)
    sign = np.sign(h[np.arange(h.shape[0]), (h != 0.0).argmax(axis=1)])
    rows, inverse, counts = np.unique(h[nonzero] * sign[nonzero, None], axis=0,
                                      return_inverse=True, return_counts=True)
    index = np.zeros(h.shape[0], dtype=int)
    index[nonzero] = inverse
    return rows * counts[:, None], sign, index


def _l1_min(h, g, fit):
    """A z minimizing ||h z||_1 subject to g'z = |g_j|, by one l1 regression.

    With j the first argmax of |g| (g != 0) and g divided by |g_j|, so that
    g_j = s = +-1 exactly, the constraint fixes z_j = s (1 - g_r'z_r) over the
    other coordinates r, and the minimum is the LAD fit of y = -s h[:, j] by
    B = h[:, r] - s h[:, j] g_r', which has full column rank whenever h has;
    its residuals are -h z.  ``fit`` is the LAD estimator that runs it.
    Returns z and the fit's Estimate (None for m = 1, where z = (s)); z
    holds the fit's x only when the fit is optimal.
    """
    m = h.shape[1]
    j = int(np.abs(g).argmax())
    g = g / abs(g[j])
    s = g[j]
    z = np.full(m, s)
    rest = np.arange(m) != j
    hj = h[:, j]
    B, y = h[:, rest] - s * np.outer(hj, g[rest]), -s * hj
    est = fit(B, y) if m > 1 else None
    if est is not None and est.status == "optimal":
        z[rest] = est.x_hat
        z[j] = s * (1.0 - g[rest] @ est.x_hat)
    return z, est


def _fit_point(At: np.ndarray, target: np.ndarray):
    """``solve_lp``'s candidate w, or None when the fit finds none, and the
    fit's pivots."""
    h, sign, index = _collapsed_rows(At.T)
    if not (h.size and target.any()):
        return np.zeros(At.shape[1]), 0    # the one candidate when At or target is 0
    z, est = _l1_min(h, target, lad_estimate)
    r = -(h @ z) if est is None else est.residuals
    u = np.sign(r) if est is None else est.dual
    iterations = 0 if est is None else est.iterations
    l1 = float(np.abs(r).sum())
    if u is None or not l1:
        return None, iterations       # no optimal fit, or h z = 0: h is numerically singular
    return sign * u[index] * (-float(target @ z) / l1), iterations


def solve_lp(At: np.ndarray, target: np.ndarray) -> _Verdict:
    """Is there a w with |w| <= 1 and At w = target?  One l1 fit decides.

    target lies in the zonotope {At w : |w| <= 1} iff target'v <= ||At'v||_1
    for every v (the zonotope's support function), i.e. iff
    mu = min{||At'v||_1 : target'v = 1} >= 1.  The rows of At' are first
    collapsed up to sign (``_collapsed_rows``: +-1 rows at m = 5 leave at
    most 16), and ``_l1_min`` turns the minimum into one LAD fit with m - 1
    unknowns, of value mu |target_j|.  Its dual u (B'u = 0, |u| <= 1, and
    y'u equal to the fit's objective) is the fit's ``Estimate.dual``, which
    its simplex stopped on; a fit that is not optimal has none, and finds no
    point.  A degenerate vertex of the fit is certified by
    ``_certify_vertex``, which may call this function with one unknown
    fewer, so the recursion is at most m - 1 deep; for m = 1 there is no fit
    and u = sign(r), r = -h z.  Then h'u = -mu target,
    so w = -u / mu, mapped back through the collapse (w_i = s_i w_(c_i), 0 on
    a zero row of At'), lies in the box iff mu >= 1.  It must pass
    ``_accepted``, so a yes does not lean on the fit's tolerances.

    When it does not, At may be rank deficient or nearly so, where the fit
    raises a typed error or loses its accuracy.  The singular directions
    u_k along which no w in the box moves At w by more than the residual
    allowance (s_k sqrt(p) <= 1e-8 * scale) are then dropped, the check is
    posed on the rest of the row space, U_r'At w = U_r'target, and the point
    found there must pass ``_accepted`` on (At, target).  ``iterations``
    counts the fits' pivots.
    """
    m, p = At.shape
    scale = float(np.abs(target).max()) or 1.0
    try:
        w, iterations = _fit_point(At, target)
    except (LadSysIdError, np.linalg.LinAlgError):
        w, iterations = None, 0         # the fit's B is singular, and so is At
    if w is not None and _accepted(At, target, w, scale):
        return _Verdict(w, iterations)
    left, sv, right = np.linalg.svd(At, full_matrices=False)
    rank = int((sv * math.sqrt(p) > 1e-8 * scale).sum())
    if 0 < rank < m:
        res = solve_lp(sv[:rank, None] * right[:rank], left[:, :rank].T @ target)
        if res and _accepted(At, target, res.w, scale):
            return _Verdict(res.w, iterations + res.iterations)
    return _Verdict(iterations=iterations)


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


class _Fit(NamedTuple):
    """A simplex run's last vertex: its sorted basis rows, x, the residuals
    y - A x, the status, the pivot count and, when optimal, the dual u."""

    basis: np.ndarray
    x: np.ndarray
    r: np.ndarray
    status: str
    iterations: int
    u: np.ndarray | None


def _simplex(A: np.ndarray, y: np.ndarray, basis: np.ndarray, ztol: float,
             max_iter: int, g0: np.ndarray | None = None) -> _Fit:
    """The LAD simplex from ``basis`` (sorted rows), inside the caller's
    ``SOLVE_ERRSTATE``.

    ``g0``, when given, is the gradient sum_i sign_i a_i of rows folded at a
    fixed sign outside A (the band stage's).  It adds to every price vector
    and vertex-check gradient, so the run minimizes the band objective
    ||y - Ax||_1 + sum_i sign_i (y_i - a_i x), which may be unbounded (status
    ``degenerate_fallback``).
    """
    n, m = A.shape
    AB = A[basis]
    x = solve(AB, y[basis])
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
    status, u = "iteration_limit", None
    it = 0

    while it < max_iter:
        it += 1
        g = A.T @ sigma
        if g0 is not None:
            g += g0
        lam = solve(AB.T, g)
        viol = np.abs(lam) - 1.0

        if bland:
            violated = (viol > OPT_TOL).nonzero()[0]
            optimal = violated.size == 0
        else:
            p = int(viol.argmax())
            optimal = viol[p] <= OPT_TOL
        if optimal:
            status, u = "optimal", sigma
            u[basis] = -lam
            break

        if has_zero and (it - checked_degenerate) >= 25:
            checked_degenerate = it
            zero_mask = zero_off.copy()
            zero_mask[basis] = True
            nz = (~zero_mask).nonzero()[0]
            grad_nz = A.take(nz, axis=0).T @ np.sign(r[nz])
            if g0 is not None:
                grad_nz += g0
            verdict = _certify_vertex(A, zero_mask, grad_nz)
            if verdict:
                status, u = "optimal", sigma
                u[zero_mask] = verdict.w
                break

        if bland:
            p = int(violated[0])  # basis kept sorted: first violation = smallest row
        s = 1.0 if lam[p] > 0 else -1.0

        e_p = np.zeros(m)
        e_p[p] = s
        d = solve(AB, e_p)
        np.matmul(A, d, out=hd)
        hd[basis] = 0.0

        # rows whose residual reaches zero along d: sigma (+-1 off the
        # basis) agrees with the sign of hd, so sigma * hd = |hd|, above
        # a floor; a zero residual among them blocks at t = 0
        np.multiply(sigma, hd, out=prod)
        floor = 1e-11 * max(1.0, float(hd.max()), -float(hd.min()))
        cand_rows = np.greater(prod, floor, out=cand).nonzero()[0]
        if cand_rows.size == 0:
            # cannot happen for full-rank LAD (objective grows along any ray);
            # a band objective is unbounded along d
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
        x = solve(AB, y[basis])
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

    return _Fit(basis, x, r, status, it, u)


#: the band stage keeps _BAND_MULTIPLE times as many rows as it subsamples
_BAND_MULTIPLE = 3
#: the band, repaired rows included, may hold at most n / _BAND_SHARE rows
_BAND_SHARE = 2
#: the band route's passes over all n rows pay off only from n m^2 of about
#: this on (measured: n of about 10,000 at m = 1, 3,000 at m = 2, 1,300 at m = 3)
_BAND_MIN_NM2 = 12_000
#: the subsample fit stops after _PILOT_PIVOTS * m * s^(1/3) pivots (s rows)
_PILOT_PIVOTS = 0.2
#: the strictness margin: a vertex is accepted only when max|lambda| is below
#: 1 - _STRICT, far from the simplex's own optimality tolerance
_STRICT = 1e-9


def _subsample_rows(n: int, m: int) -> np.ndarray | None:
    """The rows the band stage fits first: ceil(sqrt(m) n^(2/3)) of them,
    spread evenly over 0..n-1 (row 0 first, then every ~n/size-th row).
    None when the band, ``_BAND_MULTIPLE`` times as many rows, would exceed
    n / ``_BAND_SHARE``, or when n m^2 < ``_BAND_MIN_NM2``: the stage does
    not engage."""
    size = math.ceil(math.sqrt(m) * n ** (2.0 / 3.0))
    if _BAND_SHARE * _BAND_MULTIPLE * size > n or n * m * m < _BAND_MIN_NM2:
        return None
    return np.arange(size) * n // size


def _gather(A: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A's ``rows``, in order, as a column-major (Fortran-order) array:
    ``take`` into C order and one transposing copy, faster than fancy indexing
    and than ``take`` into a Fortran-ordered ``out``."""
    return A.take(rows, axis=0).copy(order="F")


def _vertex_fault(A: np.ndarray, basis: np.ndarray, r: np.ndarray,
                  ztol: float) -> str | None:
    """None when the vertex is the unique, nondegenerate LAD optimum of (A, y)
    with margin: no off-basis residual within ztol and max|lambda| < 1 - _STRICT
    for lambda = A_B^-T A' sigma, sigma = sign(r) off the basis.  Otherwise
    ``degenerate`` or ``non-strict``."""
    zero = np.abs(r) <= ztol
    zero[basis] = False
    if zero.any():
        return "degenerate"
    sigma = np.where(r >= 0, 1.0, -1.0)
    sigma[basis] = 0.0
    if float(np.abs(solve(A[basis].T, A.T @ sigma)).max()) >= 1.0 - _STRICT:
        return "non-strict"
    return None


def _band_stage(A: np.ndarray, y: np.ndarray, rows: np.ndarray, ztol: float,
                max_iter: int) -> _Fit | str:
    """The full simplex's last vertex found from a band of rows, or the reason
    the band stage declined, for ``lad_estimate`` to fall back on.

    A pilot fit of the s subsample ``rows``, stopped at its optimum or after
    ceil(``_PILOT_PIVOTS`` m s^(1/3)) pivots, picks the band and its start:
    the ``_BAND_MULTIPLE`` times as many rows with the smallest |y - A x_s|
    (the pilot's basis among them).  Every other row i is folded into
    g0 = sum sign(r_i) a_i, and the simplex runs on the band with g0 added to
    its prices, from the pilot's basis.  When its basis B leaves some folded
    rows on the other side, those rows join the band and leave g0, and the
    band simplex resumes from B (Portnoy and Koenker's repair); the stage
    declines as ``sign flip`` only when the band would then hold more than
    n / ``_BAND_SHARE`` rows.  B is accepted only when, on all n rows, (a)
    every folded row keeps its sign and ``_vertex_fault`` finds (b) no zero
    residual off B and (c) max|lambda| < 1 - _STRICT.  x and r are then
    computed from B by the same calls as the full simplex's.  ``max_iter``
    caps the pilot's and every band solve's pivots together.

    The pilot and every band solve run on column-major row gathers
    (``_gather``), where the three n x m products of each pivot take the
    long-vector BLAS kernels.  Their sums round differently from those over
    C-ordered rows, so a band path may take another pivot on a tie, and the
    band rows of the dual, the solve's -lambda on B, move by rounding; x, r
    and the objective depend only on B, which the accept test fixes.  The
    accept test and the products over all n rows use A as given.

    Runs inside the caller's ``SOLVE_ERRSTATE``; a typed error or LinAlgError
    declines.  A pilot that reaches its optimum within the cap declines, as
    ``subsample degenerate`` or ``subsample non-strict``, when that optimum
    is degenerate or non-strict.  The stage declines at once, as ``one
    magnitude``, when every entry of the subsample's first column has the
    same |value|, as +-1 PRBS input gives: on every such instance tried, the
    subsample's optimum had its duals on +-1.
    """
    n, m = A.shape
    width = _BAND_MULTIPLE * rows.size
    try:
        A_s, y_s = _gather(A, rows), y[rows]
        lead = np.abs(A_s[:, 0])
        if (lead == lead[0]).all():
            return "one magnitude"
        cap = min(max_iter, math.ceil(_PILOT_PIVOTS * m * rows.size ** (1.0 / 3.0)))
        pilot = _simplex(A_s, y_s, _initial_basis(A_s), ztol, cap)
        if pilot.status == "optimal":
            fault = _vertex_fault(A_s, pilot.basis, pilot.r, ztol)
            if fault:
                return "subsample " + fault
        basis = rows[pilot.basis]
        r = y - A @ pilot.x
        dist = np.abs(r)
        dist[basis] = -1.0      # the band starts from the pilot's basis
        band = np.sort(np.argpartition(dist, width)[:width])
        fold = np.where(r >= 0, 1.0, -1.0)
        fold[band] = 0.0
        g0 = A.T @ fold
        pivots = pilot.iterations
        while True:
            fit = _simplex(_gather(A, band), y[band], np.searchsorted(band, basis), ztol,
                           max_iter - pivots, g0=g0)
            pivots += fit.iterations
            if fit.status != "optimal":
                return "band " + fit.status
            basis = band[fit.basis]
            x = solve(A[basis], y[basis])
            r = np.empty_like(y)
            np.subtract(y, np.matmul(A, x, out=r), out=r)
            flipped = (fold * r < 0.0).nonzero()[0]
            if flipped.size == 0:
                break
            if _BAND_SHARE * (band.size + flipped.size) > n:
                return "sign flip"
            g0 -= fold[flipped] @ A[flipped]
            fold[flipped] = 0.0
            band = np.union1d(band, flipped)
        fault = _vertex_fault(A, basis, r, ztol)
        if fault:
            return fault
    except (LadSysIdError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__
    fold[band] = fit.u
    return _Fit(basis, x, r, "optimal", pivots, fold)


def lad_estimate(H, y, max_iter: int | None = None) -> Estimate:
    """Minimize the sum of absolute residuals ||y - Hx||_1.

    Returns a vertex solution: at least m residuals vanish when H has full
    column rank.  When the minimizer set is a face rather than a point, the
    returned vertex is one deterministic element of it.  A NaN or inf in H
    or y raises DimensionError, as does a residual sum beyond the float
    range; a basis that turns out singular raises numpy's LinAlgError.
    ``max_iter``, when given, must be a whole number >= 1 (``matgen._count``),
    or it is a DimensionError.
    When n is at least 6 times the band stage's subsample and n m^2 is at
    least 12,000, ``_band_stage`` runs first; ``max_iter`` then caps the pilot's and all band solves'
    pivots together, ``iterations`` counts them, and the full simplex, run
    when the stage declines, gets all of ``max_iter`` again and counts alone.
    """
    A, y = _checked_inputs(H, y)
    n, m = A.shape
    max_iter = 200 * (n + m) + 1000 if max_iter is None else _count("max_iter", max_iter, 1)
    ztol = ZERO_TOL * (float(np.abs(y).max()) or 1.0)

    # H and y are finite, so only a singular solve can raise the invalid flag
    # inside this block, and it turns into LinAlgError as in np.linalg.solve
    with np.errstate(**SOLVE_ERRSTATE):
        rows = _subsample_rows(n, m)
        fit = None if rows is None else _band_stage(A, y, rows, ztol, max_iter)
        if not isinstance(fit, _Fit):
            fit = _simplex(A, y, _initial_basis(A), ztol, max_iter)

    with np.errstate(over="ignore"):
        objective = float(np.abs(fit.r).sum())
    return Estimate(
        x_hat=fit.x,
        objective=_finite(objective),
        residuals=fit.r,
        status=fit.status,
        method="lad",
        iterations=fit.iterations,
        dual=fit.u,
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
