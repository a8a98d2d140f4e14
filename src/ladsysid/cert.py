"""Outlier-support correctability certificates and proof-side diagnostics.

A support K is correctable by the l1 estimator exactly when every nonzero
z satisfies ||(Hz)_K||_1 < ||(Hz)_Kbar||_1, i.e. when the convex function
||(Hz)_K||_1 stays below 1 on the polytope P = {z : ||(Hz)_Kbar||_1 <= 1}.
``certify_support_exact`` computes that maximum exactly by one of two
methods, whichever the sizes make cheaper:

- vertex enumeration: a convex function peaks at a vertex of P, and every
  vertex is a null vector of m-1 rows of H_Kbar, so C(n-|K|, m-1) candidate
  directions are scored in batches;
- one l1 regression per sign pattern sigma of (Hz) on K (2^(|K|-1) after
  the z -> -z symmetry): max sigma'(Hz)_K over P is
  1 / min{||H_Kbar z||_1 : (H_K' sigma)'z = 1}, and eliminating one
  coordinate of z through the constraint makes that minimum a LAD fit
  with m - 1 unknowns, which ``lad_estimate`` solves.

``certify_support_mc`` is the randomized falsifier for supports too large to
enumerate, and the remaining functions evaluate the concentration and
expected-gain quantities that the recoverability analysis is built on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DimensionError, LadSysIdError, SingularSystemError,
                     SupportSizeError)
# not called here: perfbench's tracer wraps the name cert.solve_lp, so it stays
from .lp import solve_lp  # noqa: F401
from .matgen import (InputDist, Magnitude, build_regressor, derive_seed,
                     rng_from_seed, sample_input)
from .solver import _as_matrix, _unit_shift, lad_estimate
from .threshold import normal_sf

__all__ = [
    "SupportCert",
    "balance_gap",
    "certify_support_exact",
    "certify_support_mc",
    "empirical_recovery_rate",
    "ConcentrationReport",
    "concentration_diagnostic",
    "expected_gain",
]

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)

#: Vertices scored for the cost of one sign-pattern solve: the exact certifier
#: enumerates vertices when C(n-|K|, m-1) <= _VERTEX_PER_LP * 2^(|K|-1).
#: Measured at 3-9 us per vertex against 0.2-1.1 ms per sign-pattern LAD
#: solve (n = 30..500, m = 2..5, one BLAS thread), a ratio of 20-350.
_VERTEX_PER_LP = 1000
#: Largest |K| for the sign-pattern route (2^19 solves); the vertex route has no cap
_PATTERN_CAP = 20
_MARGIN = 1e-8          # the least worst_gap that certifies a support
_RECOVERY_TOL = 1e-6    # empirical_recovery_rate's relative error bound
#: Entries of the (directions x n) score buffer per batch (1 MB of float64):
#: vertex enumeration and the randomized falsifier score each batch in one
#: buffer, allocated once per call, that stays in cache between the product,
#: the absolute value and the column sums.
_BATCH_ENTRIES = 131_072


@dataclass
class SupportCert:
    """Certification outcome for one outlier support.

    ``method`` names how it was reached (vertices | patterns | mc) and
    ``work`` counts the vertices scored, the sign patterns solved or the
    directions sampled; 0 when the support was decided before any of them.
    """

    support: tuple
    verdict: str                  # certified | falsified | unfalsified
    worst_gap: float
    method: str
    work: int
    witness: Optional[np.ndarray] = None


def _support_array(K, n: int) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in K)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise DimensionError(f"support indices must lie in 0..{n - 1}")
    return idx


def _support_tuple(idx: np.ndarray) -> tuple:
    return tuple(int(i) for i in idx)


def balance_gap(H, K, z) -> float:
    """||(Hz)_Kbar||_1 - ||(Hz)_K||_1; positive for every z iff K is correctable."""
    A = _as_matrix(H)
    n = A.shape[0]
    idx = _support_array(K, n)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (A.shape[1],):
        raise DimensionError(f"z has shape {z.shape}, expected ({A.shape[1]},)")
    if not np.any(z):
        raise ValueError("z must be nonzero")
    v = np.abs(A @ z)
    on_k = v[idx].sum()
    return float(v.sum() - 2.0 * on_k)


def _unit_scaled(A):
    """A times the power of two that brings max|A| into [1, 2): exact, so no ratio moves."""
    return np.ldexp(A, _unit_shift(np.abs(A).max(initial=0.0)))


def certify_support_exact(H, K) -> SupportCert:
    """Decide correctability of K exactly.

    ``worst_gap`` is 1 - max ||(Hz)_K||_1 over ||(Hz)_Kbar||_1 <= 1, and K is
    certified only when it exceeds ``_MARGIN``.  The maximum comes from
    enumerating the C(n-|K|, m-1) vertices of that polytope when there are
    at most ``_VERTEX_PER_LP`` per sign pattern, and otherwise from one
    LAD solve per sign pattern of (Hz) on K (2^(|K|-1) of them); the
    latter is refused with SupportSizeError when |K| > ``_PATTERN_CAP``.  A
    rank-deficient H_Kbar (as when K holds every row) is falsified with gap
    -inf.  A falsified verdict carries a unit witness z whose balance gap
    is at most ``_MARGIN`` * ||(Hz)_Kbar||_1.  H is first scaled, exactly,
    by the power of two that brings max|H| into [1, 2), so no route's
    tolerance depends on the scale of H; the ratio does not change.  A
    pattern solve that ends other than optimal is a LadSysIdError.
    """
    A = _as_matrix(H)
    n, m = A.shape
    idx = _support_array(K, n)
    k = idx.size
    vertices = math.comb(n - k, m - 1)
    method = "vertices" if vertices <= _VERTEX_PER_LP * 2 ** (k - 1) else "patterns"
    if method == "patterns" and k > _PATTERN_CAP:
        raise SupportSizeError(
            f"|K| = {k} exceeds the sign-pattern route's cap {_PATTERN_CAP}, and the vertex "
            f"route would score {vertices} vertices; use certify_support_mc instead")
    if np.linalg.matrix_rank(A) < m:
        raise SingularSystemError("regressor matrix is rank deficient")
    A = _unit_scaled(A)
    support = _support_tuple(idx)
    if k == 0:
        return SupportCert(support, "certified", 1.0, method, 0)
    cidx = np.setdiff1d(np.arange(n), idx)
    hc = A[cidx]
    if np.linalg.matrix_rank(hc) < m:
        # a direction with (Hz)_Kbar = 0 puts all of Hz on K
        z = np.linalg.svd(hc)[2][-1]
        return SupportCert(support, "falsified", -np.inf, method, 0, witness=z)

    if method == "vertices":
        best, z = _vertex_max(A, idx, cidx)
        work = vertices
    else:
        best, z = _pattern_max(A, idx, cidx)
        work = 2 ** (k - 1)
    worst_gap = 1.0 - best
    if worst_gap > _MARGIN:
        return SupportCert(support, "certified", worst_gap, method, work)
    return SupportCert(support, "falsified", worst_gap, method, work,
                       witness=z / np.linalg.norm(z))


def _abs_sums(Z, A, buf, idx, rest):
    """Row sums of |Z H'| over the columns ``idx`` and over ``rest``.

    The product is written into the leading rows of ``buf`` and made
    absolute in place; ``rest`` is the index array of Kbar, or
    ``slice(None)`` for every column.
    """
    V = buf[:Z.shape[0]]
    np.matmul(Z, A.T, out=V)
    np.abs(V, out=V)
    return V[:, idx].sum(axis=1), V[:, rest].sum(axis=1)


def _batch_sizes(total: int, n: int) -> list:
    """Sizes of the batches that score ``total`` directions against n rows.

    A batch holds ``_BATCH_ENTRIES // n`` directions; a lone direction left
    over after a full batch joins it, because numpy scores a single row by
    a matrix-vector product and a pairwise column sum, which round
    differently from a batch's matrix product and column sums.
    """
    size = max(1, _BATCH_ENTRIES // max(n, 1))
    q, r = divmod(total, size)
    sizes = [size] * q + [r] * (r > 0)
    if r == 1 and q:
        sizes[-2:] = [size + 1]
    return sizes


def _vertex_max(A, idx, cidx):
    """Largest ratio over the vertex directions of {||(Hz)_Kbar||_1 <= 1}.

    Each vertex is the null vector of m-1 rows of H_Kbar (a degenerate
    choice of rows still yields a feasible direction), taken from a batched
    SVD.  Returns the ratio and its direction.
    """
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


def _collapsed_rows(h):
    """The nonzero rows of h that differ up to sign, each times its
    multiplicity: ||h z||_1 is their l1 sum for every z, as c |r'z| = |c r'z|."""
    h = h[h.any(axis=1)]
    lead = h[np.arange(h.shape[0]), (h != 0.0).argmax(axis=1)]
    rows, counts = np.unique(h * np.sign(lead)[:, None], axis=0, return_counts=True)
    return rows * counts[:, None]


def _pattern_max(A, idx, cidx):
    """Largest ratio over the sign patterns of (Hz)_K, one l1 regression each.

    For pattern sigma, max sigma'(Hz)_K over ||(Hz)_Kbar||_1 <= 1 is
    1 / min{||H_Kbar z||_1 : g'z = 1}, g = H_K' sigma.  With j the first
    argmax of |g| and g divided by |g_j|, so that g_j = s = +-1 exactly, the
    constraint fixes z_j = s (1 - g_r'z_r) over the other coordinates r, and
    the minimum is the LAD fit of -s H_Kbar[:, j] by
    B = H_Kbar[:, r] - s H_Kbar[:, j] g_r', which has full column rank
    whenever H_Kbar has; for m = 1, z = (s).  A pattern with g = 0 is skipped
    before solving: its ratio is 0.  Rows of H_Kbar equal up to sign are
    first collapsed into one row times their count, which is exact and
    spares LAD the degenerate pivots of repeated rows (a +-1 Toeplitz H with
    m = 5 has at most 16 rows up to sign).  The ratio is recomputed from
    each z.
    Returns the ratio and its direction.
    """
    n, m = A.shape
    hk, hc = A[idx], _collapsed_rows(A[cidx])
    buf = np.empty((1, n))
    best, best_z = 0.0, None       # the ratio is never negative
    for tail in itertools.product((1.0, -1.0), repeat=idx.size - 1):
        g = np.array((1.0,) + tail) @ hk
        j = int(np.abs(g).argmax())
        if g[j] == 0.0:
            continue               # H_K' sigma = 0: ratio 0
        g /= abs(g[j])
        s = g[j]
        z = np.full(m, s)
        if m > 1:
            rest = np.arange(m) != j
            hj = hc[:, j]
            est = lad_estimate(hc[:, rest] - s * np.outer(hj, g[rest]), -s * hj)
            if est.status != "optimal":
                raise LadSysIdError(f"sign-pattern LAD solve ended with status {est.status}")
            z[rest] = est.x_hat
            z[j] = s * (1.0 - g[rest] @ est.x_hat)
        on, off = _abs_sums(z[None, :], A, buf, idx, cidx)
        r = float(on[0] / off[0])
        if r > best:
            best, best_z = r, z
    return best, best_z


def certify_support_mc(H, K, trials: int, seed: int) -> SupportCert:
    """Randomized falsifier: sample unit directions, report any violation.

    Never certifies -- a clean sweep only returns ``unfalsified``.  Directions
    are normalized Gaussian vectors, i.e. uniform on the sphere, drawn from
    one Gaussian stream and scored in batches; the first minimum is kept.
    H is first scaled, exactly, by the power of two that brings max|H| into
    [1, 2), so ``worst_gap`` does not depend on the scale of H.
    """
    if trials < 1:
        raise DimensionError(f"trials must be >= 1, got {trials}")
    A = _unit_scaled(_as_matrix(H))
    n, m = A.shape
    idx = _support_array(K, n)

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
        on, total = _abs_sums(Z, A, buf, idx, slice(None))
        gaps = total - 2.0 * on
        scaled = np.where(on > 1e-300, gaps / np.maximum(on, 1e-300), gaps)
        i = int(np.argmin(scaled))
        if scaled[i] < worst:
            worst = float(scaled[i])
            worst_z = Z[i].copy()

    if worst <= 0.0:
        return SupportCert(_support_tuple(idx), "falsified", worst, "mc", trials,
                           witness=worst_z)
    return SupportCert(_support_tuple(idx), "unfalsified", worst, "mc", trials)


def empirical_recovery_rate(H, K, trials: int, magnitude: Magnitude, seed: int) -> float:
    """Fraction of random-instance trials where LAD recovers the parameters.

    Each trial draws x ~ N(0, I) and outlier magnitudes on K from
    ``magnitude``, forms y = Hx + e and solves the LAD problem; success
    means x is recovered to ``_RECOVERY_TOL`` relative error.
    """
    if trials < 1:
        raise DimensionError(f"trials must be >= 1, got {trials}")
    A = _as_matrix(H)
    n, m = A.shape
    idx = _support_array(K, n)
    rng = rng_from_seed(seed)
    hits = 0
    for _ in range(trials):
        x = rng.standard_normal(m)
        e = np.zeros(n)
        if idx.size:
            e[idx] = rng.normal(magnitude.mean, magnitude.sd, size=idx.size)
        est = lad_estimate(A, A @ x + e)
        denom = max(np.linalg.norm(x), 1e-300)
        if est.status == "optimal" and np.linalg.norm(est.x_hat - x) <= _RECOVERY_TOL * denom:
            hits += 1
    return hits / trials


@dataclass
class ConcentrationReport:
    """Per-row l1 mass of Hz over fresh regressor draws."""

    mean: float
    std: float
    reference: Optional[float]    # sigma sqrt(2/pi) for Gaussian inputs
    rel_deviation: Optional[float]
    samples: np.ndarray


def concentration_diagnostic(n: int, m: int, z, trials: int, seed: int,
                             dist: Optional[InputDist] = None) -> ConcentrationReport:
    """Empirical mean and spread of ||Hz||_1 / n over fresh input draws.

    For standard Gaussian inputs each row of Hz is N(0, 1), so the per-row
    mean concentrates at E|N(0,1)| = sqrt(2/pi) = 0.7979.
    """
    if trials < 1:
        raise DimensionError(f"trials must be >= 1, got {trials}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (m,):
        raise DimensionError(f"z has shape {z.shape}, expected ({m},)")
    if abs(np.linalg.norm(z) - 1.0) > 1e-8:
        raise ValueError("z must be a unit vector")
    if dist is None:
        dist = InputDist.gaussian(1.0)
    samples = np.empty(trials)
    for t in range(trials):
        h = sample_input(dist, n, m, derive_seed(seed, t))
        Hm = build_regressor(h, n, m)
        samples[t] = np.abs(Hm.entries @ z).sum() / n
    mean = float(samples.mean())
    std = float(samples.std(ddof=1)) if trials > 1 else 0.0
    if dist.kind == "gaussian":
        ref = dist.sigma * SQRT_2_OVER_PI
        return ConcentrationReport(mean, std, ref, abs(mean - ref) / ref, samples)
    return ConcentrationReport(mean, std, None, None, samples)


def expected_gain(l: float, t: float) -> float:
    """E|l + tX| - |l| for X ~ N(0,1): the per-observation objective growth.

    Closed form sqrt(2/pi) t exp(-l^2/(2t^2)) - 2|l|(1 - Phi(|l|/t));
    nonnegative and nonincreasing in |l|, with value sqrt(2/pi) t at l = 0
    and about 0.1666 t at |l| = t.
    """
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    a = abs(float(l))
    return float(SQRT_2_OVER_PI * t * np.exp(-a * a / (2.0 * t * t))
                 - 2.0 * a * normal_sf(a / t))
