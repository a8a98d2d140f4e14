"""Independent oracles shared by the unit and acceptance suites."""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse
from scipy.integrate import quad
from scipy.optimize import linprog

from ladsysid import InputDist, build_regressor, lad_estimate, sample_input
from ladsysid.cert import _abs_sums, _batch_sizes, _unit_scaled
from ladsysid.errors import LadSysIdError
from ladsysid.matgen import rng_from_seed
from ladsysid.solver import _as_matrix, _collapsed_rows, _l1_min


#: a noiseless +-1 PRBS scenario whose optima are degenerate vertices
NOISELESS_PM1 = {
    "name": "noiseless_pm1", "m": 5, "input": {"kind": "bernoulli_pm1"},
    "x_source": {"kind": "gaussian_random"}, "noise": {"kind": "none"},
    "outliers": {"count_model": "uniform_fraction", "max_fraction": 0.8,
                 "mean": 0.0, "sd": 10.0},
    "estimators": ["lad", "ls"],
}


def gauss_toeplitz(n, m, seed, sigma=1.0):
    return build_regressor(sample_input(InputDist.gaussian(sigma), n, m, seed), n, m)


def gain_quadrature(l, t):
    """E|l + tX| - |l| by adaptive quadrature split at the integrand kink."""
    f = lambda x: abs(l + t * x) * np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi)
    kink = -l / t
    left, _ = quad(f, -np.inf, kink, epsabs=1e-13, epsrel=1e-13, limit=500)
    right, _ = quad(f, kink, np.inf, epsabs=1e-13, epsrel=1e-13, limit=500)
    return left + right - abs(l)


def direction_grid_min_gap(H, K, points=10**4):
    """Minimum balance gap over a dense sweep of unit directions.

    For m = 1 the directions are just +/-1 (the gap is even in z); for m = 2
    a half-circle sweep covers every direction up to sign.
    """
    A = H.entries if hasattr(H, "entries") else np.asarray(H, dtype=float)
    n, m = A.shape
    on_k = np.zeros(n, dtype=bool)
    on_k[list(K)] = True
    if m == 1:
        Z = np.array([[1.0]])
    elif m == 2:
        theta = np.linspace(0.0, np.pi, points, endpoint=False)
        Z = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        raise ValueError("direction grid oracle supports m <= 2 only")
    V = np.abs(Z @ A.T)
    gaps = V.sum(axis=1) - 2.0 * V[:, on_k].sum(axis=1)
    i = int(np.argmin(gaps))
    return float(gaps[i]), Z[i]


def mc_batched_reference(H, K, trials, seed):
    """The randomized falsifier's loop as it stood before it skipped any
    direction: each batch of ``_batch_sizes`` is drawn, normalized and scored
    whole, by one product written into a reused buffer, an in-place absolute
    value, the F-ordered gather's row sums over K and the rows' pairwise sums.
    Returns the worst scaled gap and its direction."""
    A = _unit_scaled(_as_matrix(H))
    n, m = A.shape
    idx = np.asarray(sorted(set(int(i) for i in K)), dtype=int)
    rng = rng_from_seed(seed)
    worst = np.inf
    worst_z = None
    sizes = _batch_sizes(trials, n)
    buf = np.empty((max(sizes), n))
    for b in sizes:
        Z = rng.standard_normal((b, m))
        norms = np.linalg.norm(Z, axis=1)
        norms[norms == 0] = 1.0
        Z /= norms[:, None]
        V = buf[:b]
        np.matmul(Z, A.T, out=V)
        np.abs(V, out=V)
        on, total = V[:, idx].sum(axis=1), V[:, slice(None)].sum(axis=1)
        gaps = total - 2.0 * on
        scaled = np.where(on > 1e-300, gaps / np.maximum(on, 1e-300), gaps)
        i = int(np.argmin(scaled))
        if scaled[i] < worst:
            worst = float(scaled[i])
            worst_z = Z[i].copy()
    return worst, worst_z


def vertex_max_reference(A, idx, cidx):
    """The exact certifier's vertex enumeration as it stood before it
    screened vertices: every vertex's null vector from one batched SVD, each
    batch scored whole.  Returns the largest ratio and its direction."""
    n, m = A.shape
    hc = A[cidx]
    combos = itertools.combinations(range(cidx.size), m - 1)
    sizes = _batch_sizes(math.comb(cidx.size, m - 1), n)
    buf = np.empty((max(sizes), n))
    best, best_z = -np.inf, None
    for b in sizes:
        rows = np.array(list(itertools.islice(combos, b)), dtype=np.intp)
        Z = np.linalg.svd(hc[rows])[2][:, -1, :]
        on, off = _abs_sums(Z, A, buf, idx, cidx)
        r = on / off
        i = int(np.argmax(r))
        if r[i] > best:
            best, best_z = float(r[i]), Z[i]
    return best, best_z


def pattern_max_reference(A, idx, cidx):
    """The exact certifier's sign-pattern route as it stood before its
    routes shared one first-extremum rule: one l1 fit per pattern, each z
    scored alone by a one-row product, the first largest ratio kept.
    Returns the ratio and its direction."""
    n = A.shape[0]
    hk, hc = A[idx], _collapsed_rows(A[cidx])[0]
    buf = np.empty((1, n))
    best, best_z = 0.0, None
    for tail in itertools.product((1.0, -1.0), repeat=idx.size - 1):
        g = np.array((1.0,) + tail) @ hk
        j = int(np.abs(g).argmax())
        if g[j] == 0.0:
            continue
        z, est = _l1_min(hc, g, lad_estimate)
        if est is not None and est.status != "optimal":
            raise LadSysIdError(f"sign-pattern LAD solve ended with status {est.status}")
        on, off = _abs_sums(z[None, :], A, buf, idx, cidx)
        r = float(on[0] / off[0])
        if r > best:
            best, best_z = r, z
    return best, best_z


def recovery_probe(H, K, trials, seed, magnitude_mean=100.0, magnitude_sd=50.0,
                   rel_tol=1e-6):
    """Fraction of random instances with outliers on K that LAD solves exactly."""
    A = H.entries if hasattr(H, "entries") else np.asarray(H, dtype=float)
    n, m = A.shape
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        x = rng.standard_normal(m)
        e = np.zeros(n)
        if len(K):
            e[list(K)] = rng.normal(magnitude_mean, magnitude_sd, size=len(K))
        est = lad_estimate(A, A @ x + e)
        if (est.status == "optimal"
                and np.linalg.norm(est.x_hat - x) <= rel_tol * np.linalg.norm(x)):
            hits += 1
    return hits / trials


def witness_attack_defeats_lad(H, K, witness, seed, scale=1e3):
    """Plant outliers aligned with the witness direction; check LAD misses x."""
    A = H.entries if hasattr(H, "entries") else np.asarray(H, dtype=float)
    n, m = A.shape
    rng = np.random.default_rng(seed)
    hz = A @ witness
    for _ in range(3):
        x = rng.standard_normal(m)
        e = np.zeros(n)
        e[list(K)] = scale * hz[list(K)]
        est = lad_estimate(A, A @ x + e)
        if np.linalg.norm(est.x_hat - x) > 1e-6 * np.linalg.norm(x):
            return True
    return False


def highs_pattern_best(H, K):
    """max ||(Hz)_K||_1 s.t. ||(Hz)_Kbar||_1 <= 1 by HiGHS, one primal LP per
    sign pattern on K (inf when some pattern is unbounded)."""
    A = H.entries if hasattr(H, "entries") else np.asarray(H, dtype=float)
    n, m = A.shape
    on = np.zeros(n, dtype=bool)
    on[list(K)] = True
    hk, hc = A[on], A[~on]
    nc = hc.shape[0]
    eye = np.eye(nc)
    a_ub = np.vstack([np.hstack([hc, -eye]), np.hstack([-hc, -eye]),
                      np.concatenate([np.zeros(m), np.ones(nc)])[None, :]])
    b_ub = np.zeros(2 * nc + 1)
    b_ub[-1] = 1.0
    bounds = [(None, None)] * m + [(0, None)] * nc
    best = -np.inf
    for tail in itertools.product((1.0, -1.0), repeat=len(K) - 1):
        sigma = np.array((1.0,) + tail)
        res = linprog(-np.concatenate([sigma @ hk, np.zeros(nc)]), A_ub=a_ub,
                      b_ub=b_ub, bounds=bounds, method="highs")
        if res.status == 3:
            return np.inf
        assert res.status == 0, res.message
        best = max(best, -res.fun)
    return best


def highs_lad_objective(H, y):
    """min ||y - Hx||_1 by HiGHS on the dual LP max y'u s.t. H'u = 0, |u| <= 1."""
    A = H.entries if hasattr(H, "entries") else np.asarray(H, dtype=float)
    res = linprog(-np.asarray(y, dtype=float), A_eq=scipy.sparse.csr_array(A.T),
                  b_eq=np.zeros(A.shape[1]), bounds=(-1.0, 1.0), method="highs-ipm",
                  options={"presolve": False})
    assert res.status == 0, res.message
    return -res.fun


def highs_box_feasible(B, b, bounds):
    """Is there a w with B w = b inside ``bounds`` (one (lo, hi) pair, or one
    per column)?  HiGHS on the zero-cost LP."""
    res = linprog(np.zeros(B.shape[1]), A_eq=B, b_eq=b, bounds=bounds, method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def vertex_check_lp_only(A, zero_mask, grad_nz):
    """LAD's degenerate-vertex check decided by the box-feasibility LP alone:
    is there a w with |w| <= 1 + 1e-9 and A_Z' w = -grad_nz within 1e-8 of the
    largest target entry, after each row is scaled by a power of two so its
    largest entry lies in [1, 2)?  The LP's point is re-verified."""
    At = A[zero_mask].T
    target = -grad_nz
    size = np.abs(At).max(axis=1, initial=0.0)
    size = np.where(size > 0.0, size, np.abs(target))
    shift = 1 - np.frexp(size)[1]
    At = np.ldexp(At, shift[:, None])
    target = np.ldexp(target, shift)
    p = At.shape[1]
    res = phase1_box_lp(At, target, np.full(p, -1.0), np.ones(p))
    if res.status != "optimal":
        return False
    w = res.x
    scale = float(np.abs(target).max()) or 1.0
    return bool(np.abs(w).max(initial=0.0) <= 1.0 + 1e-9
                and float(np.abs(At @ w - target).max()) <= 1e-8 * scale)


# The bounded-variable phase-1 simplex: ``vertex_check_lp_only``'s LP, a
# reference independent of the package's l1-fit fallback.
@dataclass
class Phase1Result:
    status: str                     # optimal | infeasible | iteration_limit | inaccurate
    x: Optional[np.ndarray] = None
    iterations: int = 0


def _violation(a, b, lo, hi, v) -> float:
    """Largest row residual or bound excess of v in a v = b, lo <= v <= hi."""
    return max(float(np.abs(a @ v - b).max(initial=0.0)),
               float((lo - v).max(initial=0.0)), float((v - hi).max(initial=0.0)))


def phase1_box_lp(a, b, lo, hi, max_iter: Optional[int] = None) -> Phase1Result:
    """A w with a w = b and lo <= w <= hi (every bound finite), by phase 1.

    The bounded-variable primal simplex on min 1'art s.t. a w + S art = b,
    art >= 0, S the signs that make the start w = lo feasible.  Basic values
    are carried from pivot to pivot, an artificial that leaves the basis is
    dropped (a feasible w has every artificial at zero, so the verdict is
    unchanged), and the search stops as soon as the artificial sum reaches
    zero.  ``max_iter`` caps the pivots and bound flips; the default is
    200 + 50 (q + p) for q rows and p variables.
    """
    q, p = a.shape
    if max_iter is None:
        max_iter = 200 + 50 * (q + p)
    a = np.ascontiguousarray(a)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    ztol = 1e-9 * scale
    # direction each nonbasic variable may move: +1 up from lo, -1 down from
    # hi, 0 when basic or fixed
    dirs = (lo < hi).astype(float)
    cap = hi - lo
    resid = b - a @ lo
    basis = np.arange(p, p + q)          # column p + i: the artificial of row i
    binv = np.diag(np.where(resid >= 0, 1.0, -1.0))
    xb = np.abs(resid)
    cost_b = np.ones(q)                  # 1 while a basic variable is artificial
    lo_b, hi_b = np.zeros(q), np.full(q, np.inf)
    iterations = 0
    bland = False
    gain = None

    with np.errstate(divide="ignore", invalid="ignore"):
        while p and float(cost_b @ xb) > ztol:
            if gain is None:
                # moving w_j along dirs_j lowers the artificial sum at rate gain_j
                gain = (cost_b @ binv) @ a
                gain *= dirs
            j = int((gain > 1e-9).argmax() if bland else gain.argmax())
            if not gain[j] > 1e-9:
                break                    # the artificial sum is at its minimum
            if iterations >= max_iter:
                return Phase1Result(status="iteration_limit", iterations=iterations)
            iterations += 1
            direction = float(dirs[j])
            u = binv @ a[:, j]
            delta = direction * u        # basic values move by -t * delta

            ratios = (xb - np.where(delta > 0, lo_b, hi_b)) / delta
            ratios[np.abs(delta) <= 1e-11] = np.inf
            np.maximum(ratios, 0.0, out=ratios)
            r = int(ratios.argmin())
            t_star = float(ratios[r])
            own_cap = float(cap[j])
            if own_cap <= t_star:        # bound flip: the basis, and so the prices, stay
                xb -= own_cap * delta
                dirs[j] = -direction
                gain[j] = -gain[j]
                bland = own_cap <= ztol
                continue

            if bland:
                tie = (ratios <= t_star + ztol).nonzero()[0]
                r = int(tie[basis[tie].argmin()])
            else:
                tie = (ratios <= t_star * (1 + 1e-12) + 1e-300).nonzero()[0]
                if tie.size > 1:
                    r = int(tie[np.abs(delta[tie]).argmax()])
            xb -= t_star * delta
            xb[r] = (lo[j] if direction > 0 else hi[j]) + direction * t_star
            leaving = int(basis[r])
            if leaving < p:
                dirs[leaving] = -1.0 if delta[r] < 0 else 1.0
            dirs[j] = 0.0
            basis[r] = j
            cost_b[r] = 0.0
            lo_b[r], hi_b[r] = lo[j], hi[j]
            row = binv[r] / u[r]
            binv -= u[:, None] * row
            binv[r] = row
            gain = None
            bland = t_star <= ztol
    if float(cost_b @ xb) > 1e-7 * scale:
        return Phase1Result(status="infeasible", iterations=iterations)

    structural = basis < p
    w = np.where(dirs < 0, hi, lo)
    w[basis[structural]] = xb[structural]
    if _violation(a, b, lo, hi, w) > ztol:
        # rebuild the basic values from the basis columns and check again (the
        # sign of a basic artificial's column only flips that artificial's value)
        cols = np.zeros((q, q))
        cols[:, structural] = a[:, basis[structural]]
        art = np.flatnonzero(~structural)
        cols[basis[art] - p, art] = 1.0
        w[basis[structural]] = 0.0
        w[basis[structural]] = np.linalg.solve(cols, b - a @ w)[structural]
        if _violation(a, b, lo, hi, w) > ztol:
            return Phase1Result(status="inaccurate", x=w, iterations=iterations)
    return Phase1Result(status="optimal", x=w, iterations=iterations)
