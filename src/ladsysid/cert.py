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
#: solve (n = 30..500, m = 2..5, one BLAS thread), a ratio of 20-350; 100
#: sits in that range.  (Gaussian n=150, m=4, |K|=10: 512 pattern fits take
#: 0.24 s where its 447,580 vertices take 1.97 s.)
_VERTEX_PER_LP = 100
#: Largest |K| for the sign-pattern route (2^19 solves); the vertex route has no cap
_PATTERN_CAP = 20
_MARGIN = 1e-8          # the least worst_gap that certifies a support
_RECOVERY_TOL = 1e-6    # empirical_recovery_rate's relative error bound
#: Entries of the (directions x n) score buffer per batch (1 MB of float64):
#: vertex enumeration and the randomized falsifier score each batch in one
#: buffer, allocated once per call, that stays in cache between the product,
#: the absolute value and the column sums.  The batches are part of the
#: output: OpenBLAS rounds a row of a matrix product differently depending on
#: where it sits in its batch, so a direction's scores are those of its row in
#: the full-batch product, and the batch sizes (``_batch_sizes``) fix them.
_BATCH_ENTRIES = 131_072
#: Probe vectors H' sign(Hu) of the falsifier's lower bound on ||Hz||_1.  On
#: the analysis benchmark's case (n=500, m=5, |K|=3) 16 probes pass 5% of the
#: directions to the second look; with 8, over a quarter of the first bounded
#: block passes, so the call scores everything whole; 24 or 32 saved no time
#: (one BLAS thread, 2-core x86-64 host)
_PROBES = 16
#: Entries of each of the falsifier's per-block arrays (directions times
#: max(m, _PROBES, |K|), 256 kB of float64); a block holds whole batches,
#: at least one
_BLOCK_ENTRIES = 32_768


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


def _product(Z, A, buf):
    """Z H', written into the leading rows of ``buf``."""
    V = buf[:Z.shape[0]]
    np.matmul(Z, A.T, out=V)
    return V


def _abs_sums(Z, A, buf, idx, rest):
    """Row sums of |Z H'| over the columns ``idx`` and over ``rest``.

    The product is written into the leading rows of ``buf`` and made
    absolute in place; ``rest`` is the index array of Kbar, or
    ``slice(None)`` for every column.  The two sums round differently, and
    each is part of the output.  The gather ``V[:, idx]`` is F-ordered, so
    its rows are summed left to right; ``V[:, rest]`` with a slice is V
    itself, each of whose C-ordered rows is summed pairwise.  A row's sums
    thus depend on its own entries only, but a gather of a few rows need not
    keep that layout (a one-row gather is summed pairwise), so a subset's
    sums over ``idx`` are taken from the whole batch's gather.
    """
    V = _product(Z, A, buf)
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


def _blocks(sizes, first: int, most: int) -> list:
    """``sizes`` cut into blocks of whole batches: the first block ends once
    it holds ``first`` directions, and each later one holds as many batches
    as fit in ``most`` directions, at least one."""
    blocks, start = [], 0
    while start < len(sizes):
        stop, held = start + 1, sizes[start]
        while stop < len(sizes) and (held < first if not blocks
                                     else held + sizes[stop] <= most):
            held += sizes[stop]
            stop += 1
        blocks.append(sizes[start:stop])
        start = stop
    return blocks


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
    one Gaussian stream and scored in batches (``_batch_sizes``): the score
    is ||(Hz)_Kbar||_1 / ||(Hz)_K||_1 - 1, or the unscaled gap where
    ||(Hz)_K||_1 is below 1e-300, and its first minimum is kept.  H is first
    scaled, exactly, by the power of two that brings max|H| into [1, 2), so
    ``worst_gap`` does not depend on the scale of H.

    Only the directions that may reach the running minimum ``worst`` are
    scored; the others are skipped, and a batch none of whose directions
    may reach it is never multiplied out.  The first block of whole batches,
    holding ``_PROBES`` directions or more, is scored whole.  Its first
    ``_PROBES`` / 2 and best-scored ``_PROBES`` / 2 directions u then give
    the probes g = H' sign(Hu).  The bound is not built for an empty K,
    whose score it cannot cut, for n <= ``_PROBES``, where it would read as
    many numbers per direction as full scoring does, or when fewer than 16
    directions per probe are left.  In each later block (``_BLOCK_ENTRIES``),
    a direction passes the probe bound when lb(z) = max_g |g'z| - slack, a
    lower bound on ||Hz||_1 because ||Hz||_1 = max c'Hz over sign vectors
    c, may not exceed cut(z) = (worst + 2) ||(Hz)_K||_1, up to rounding,
    with the K part taken from the |K| support rows.  That costs
    O(m (_PROBES + |K|)) per direction.  A direction that passes gets a
    second look: its ||Hz||_1 from a product of its own, less the same
    slack, against the same cut.  The directions that pass both are scored
    exactly as a full scoring would score them.  A batch where more than a
    quarter pass is scored whole.  When more than a quarter of a block pass
    the probe bound, the block skips the second look and is scored whole,
    and if that block is the first one bounded, the call scores every later
    batch whole too.

    Why the bits hold.  A surviving direction's row still comes from the
    product of its whole batch, at its place in it (see ``_BATCH_ENTRIES``);
    its sum over K comes from the whole batch's gather (see ``_abs_sums``);
    and its total is its row's own pairwise sum.  Its score is thus the one
    a full scoring computes.  A skipped direction's computed score is
    strictly above ``worst``, shown below, so it is above every later
    ``worst`` too.  It can never be the first minimum of a batch that
    lowers ``worst``, and the survivors keep their order.  So ``worst_gap``,
    the verdict and the witness are those of scoring every direction.  The
    draws are made a block at a time; one stream yields the same values.

    The slack.  Let u = eps/2, g_k = k u / (1 - k u), T and on the total and
    K sum a full scoring computes, and M(z) = sum_ij |H_ij| |z_j| (M_K over
    the rows K); these bounds hold for any order of summation, with or
    without FMA, while (n + m) u < 0.01.  Each entry of a computed product
    Hz is within g_m of the true one, relative to its share of M.  So T is
    at least ||Hz||_1 - (g_m + 1.01 g_(n-1)) M, and a total from a product of
    its own is at most ||Hz||_1 plus as much.  A computed probe is within
    g_(n-1) |H|'1 of H'c entrywise and its product with z within
    g_m (1 + g_(n-1)) M of g'z, so ||Hz||_1 >= |c'Hz| >= max_g |g'z| -
    1.1 (n + m) u M.  Both lower estimates of T are thus within 2.2 (n + m)
    u M of below T.  slack = 16 (n + m) u sum|H|, as computed, exceeds
    15 (n + m) u M, as M <= sum|H| (1 + (m + 2) u) for a normalized z; that
    covers the estimates and their rounding.  On the K side, the support
    rows' sum on_p and on differ by at most 2.1 (|K| u on_p + m u M_K).
    With rel = 4 (|K| + m) u and floor = rel sum|H_K| + 2e-300, on is at
    most hi = on_p (1 + rel) + floor, and above 1e-300 whenever on_p (1 -
    rel) > floor; where that fails, on may take the score's unscaled
    branch, and cut is infinite.  Every computed score is at least
    -1 - 3 n u, so worst + 2 > 0.99 and |worst| < 1.03 (worst + 2).  If
    T >= (worst + 2)(1 + 8u) on and on > 1e-300, then x = T / on - 2 >=
    worst + 8u (worst + 2).  The score's subtraction and division scale x
    by 1 +- 2.01u at most, which cannot undo that margin, so the computed
    score is above ``worst``.  cut = (worst + 2)(1 + 16u) hi, as computed,
    is at least (worst + 2)(1 + 8u) on, so lb > cut implies it.
    Gradual underflow loses less than 2^-1074 per product, which the slack
    (max|H| >= 1 after the scaling) and floor's 2e-300 cover.
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
    bound = None               # a _ProbeBound while bounding pays
    first = []                 # the first block's scores, for the probes
    most = max(1, _BLOCK_ENTRIES // max(m, _PROBES, idx.size))
    for j, block in enumerate(_blocks(sizes, _PROBES, most)):
        Zb = rng.standard_normal((sum(block), m))
        norms = np.linalg.norm(Zb, axis=1)
        norms[norms == 0] = 1.0
        Zb /= norms[:, None]
        keep = bound.survivors(Zb, worst, buf) if bound else None
        start = 0
        for b in block:
            Z = Zb[start:start + b]
            rows = None if keep is None else keep[start:start + b].nonzero()[0]
            start += b
            if rows is None or 4 * rows.size > b:
                rows = slice(None)
                on, total = _abs_sums(Z, A, buf, idx, rows)
            elif rows.size:
                V = _product(Z, A, buf)
                on = np.abs(V[:, idx]).sum(axis=1)[rows]
                total = np.abs(V[rows]).sum(axis=1)
            else:
                continue
            gaps = total - 2.0 * on
            scores = np.where(on > 1e-300, gaps / np.maximum(on, 1e-300), gaps)
            if j == 0:
                first.append(scores)
            i = int(np.argmin(scores))
            if scores[i] < worst:
                worst = float(scores[i])
                worst_z = Z[rows][i].copy()
        if j == 0 and idx.size and n > _PROBES and trials - Zb.shape[0] >= 16 * _PROBES:
            bound = _ProbeBound(A, idx, Zb, np.concatenate(first))
        elif j == 1 and keep is None:
            bound = None       # the bound does not pay on this input

    if worst <= 0.0:
        return SupportCert(_support_tuple(idx), "falsified", worst, "mc", trials,
                           witness=worst_z)
    return SupportCert(_support_tuple(idx), "unfalsified", worst, "mc", trials)


class _ProbeBound:
    """The falsifier's two lower bounds on ||Hz||_1 and its upper bound on
    ||(Hz)_K||_1; ``certify_support_mc`` derives them and their slack."""

    def __init__(self, A, idx, Z, scores):
        n, m = A.shape
        u = np.finfo(float).eps / 2
        best = np.argsort(scores, kind="stable")[:_PROBES - _PROBES // 2]
        U = Z[np.concatenate([np.arange(min(_PROBES // 2, len(Z))), best])]
        self.A = A
        self.probes = np.array([np.sign(A @ z) @ A for z in U])     # P x m
        self.hk = A[idx]                                             # |K| x m
        self.slack = 16.0 * (n + m) * u * float(np.abs(A).sum())
        self.rel = 4.0 * (idx.size + m) * u
        self.floor = self.rel * float(np.abs(self.hk).sum()) + 2e-300
        self.grow = 1.0 + 16.0 * u

    def survivors(self, Z, worst, buf):
        """Which rows of Z may score at most ``worst``, as a boolean mask, or
        None when more than a quarter of them pass the probe bound."""
        # each direction is a column here, so the reductions run across rows
        W = self.probes @ Z.T
        low = np.abs(W, out=W).max(axis=0) - self.slack
        W = self.hk @ Z.T
        on = np.abs(W, out=W).sum(axis=0)
        cut = (worst + 2.0) * self.grow * (on * (1.0 + self.rel) + self.floor)
        cut[on * (1.0 - self.rel) <= self.floor] = np.inf
        keep = low <= cut
        looked = keep.nonzero()[0]
        if 4 * looked.size > keep.size:
            return None
        for start in range(0, looked.size, buf.shape[0]):
            rows = looked[start:start + buf.shape[0]]
            V = _product(Z[rows], self.A, buf)
            keep[rows] = np.abs(V, out=V).sum(axis=1) - self.slack <= cut[rows]
        return keep


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
