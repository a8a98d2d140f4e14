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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DimensionError, LadSysIdError, SingularSystemError,
                     SupportSizeError)
from .matgen import (InputDist, Magnitude, _count, _real, _whole, build_regressor,
                     derive_seed, rng_from_seed, sample_input)
# solve_lp is not called here: perfbench's tracer wraps the name cert.solve_lp
from .solver import (_as_matrix, _collapsed_rows, _l1_min, _unit_shift,  # noqa: F401
                     lad_estimate, solve_lp)
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
#: Measured at 0.8-3 us per vertex (3 us below ``_SCREEN_FROM`` vertices,
#: where every vertex is SVD'd) against 0.12-0.6 ms per sign-pattern LAD fit
#: (n = 30..500, m = 2..5, one BLAS thread), a ratio of 40-750.  100 was set
#: when a vertex took 3-9 us (a ratio of 20-350), and is kept, as a new
#: value would move ``method`` and ``work`` for supports near the boundary.
#: (Gaussian n=150, m=4, |K|=10: 512 pattern fits take 0.16 s where its
#: 447,580 vertices take 0.44 s.)
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
    """The distinct indices of K, sorted.  DimensionError on an index outside
    0..n-1, on a bool, or on a number that is not whole (``matgen._whole``):
    3.0 is row 3, as ``matgen._coerce`` takes k, and 1.5 is an error rather
    than row 1."""
    K = list(K)
    for i in K:
        if not _whole(i):
            raise DimensionError(f"support indices must be integers, got {i!r}")
    idx = np.asarray(sorted(set(int(i) for i in K)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise DimensionError(f"support indices must lie in 0..{n - 1}")
    return idx


def _support_tuple(idx: np.ndarray) -> tuple:
    return tuple(int(i) for i in idx)


def balance_gap(H, K, z) -> float:
    """||(Hz)_Kbar||_1 - ||(Hz)_K||_1; positive for every z iff K is correctable.

    K is a set: a repeated index counts once.  z must be real, finite and
    nonzero, or it is a DimensionError (a ValueError).
    """
    A = _as_matrix(H)
    n = A.shape[0]
    idx = _support_array(K, n)
    z = np.atleast_1d(_real("z", z))
    if z.shape != (A.shape[1],):
        raise DimensionError(f"z has shape {z.shape}, expected ({A.shape[1]},)")
    if not np.isfinite(z).all():
        raise DimensionError("z must be finite (found NaN or inf)")
    if not np.any(z):
        raise DimensionError("z must be nonzero")
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
    pattern solve that ends other than optimal is a LadSysIdError.  K is a
    set: a repeated index counts once, so [0, 0, 1] certifies (0, 1).
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


def _abs_sums(Z, A, buf, idx, rest, rows=slice(None)):
    """Row sums of |Z H'| over the columns ``idx`` and over ``rest``, for the
    rows ``rows`` of the batch Z.

    The whole batch's product V is written into the leading rows of ``buf``;
    its gather over ``idx`` and its rows ``rows`` (V itself for every row)
    are made absolute in place.  ``rest`` is the index array of Kbar, or
    ``slice(None)`` for every column, which ``rows`` short of the batch
    requires.

    Why the bits hold.  A route may score only some rows of a batch, and
    fill the others with raw draws or cofactor vectors, yet each row it
    scores gets the bits that scoring the whole batch gives it.  A row of
    the product depends on its own entries and its place in the batch only
    (see ``_BATCH_ENTRIES``).  The two sums round differently, and each is
    part of the output.  The gather ``V[:, idx]`` is F-ordered, so its rows
    are summed left to right; a gather of a few rows need not keep that
    layout (a one-row gather is summed pairwise), so the sums over ``idx``
    are taken from the whole batch's gather.  ``V[:, rest]`` with a slice is
    V itself, each of whose C-ordered rows is summed pairwise, as is each
    row of ``V[rows]``.  A row's norm and division read that row alone
    (``_normalize``), so a direction normalized with a few others, or alone,
    has the bits a whole-batch normalization gives it.  And the extremum is
    the first least key (``_first_least``): a row left unscored whose key is
    strictly above the running least, or above a scored key of its batch,
    can be neither the first least of a batch that lowers the least nor a
    new least, and the scored rows keep their order.
    """
    V = np.matmul(Z, A.T, out=buf[:len(Z)])
    on, W = V[:, idx], V[rows]       # W is V itself for every row
    np.abs(on, out=on)
    np.abs(W, out=W)
    return on.sum(axis=1)[rows], W[:, rest].sum(axis=1)


def _first_least(keys, Z, key, z):
    """The first least of ``keys`` and a copy of its row of Z if it is below
    ``key``, else ``key`` and ``z``: each route's extremum.  The maximizing
    routes offer -ratio, exactly, whose first least is the first largest
    ratio, NaN included (argmin and argmax stop at the first NaN, and a NaN
    never wins)."""
    i = int(np.argmin(keys))
    return (float(keys[i]), Z[i].copy()) if keys[i] < key else (key, z)


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
    """``sizes`` cut into blocks of whole batches: ceil(``first`` / size)
    batches, size = ``sizes[0]``, then max(1, ``most`` // size) batches per
    block.  So the first block holds ``first`` directions or every batch,
    and a later one at most ``most`` directions or one batch, plus the lone
    direction ``_batch_sizes`` may add to the last batch."""
    cuts = [0, *range(-(-first // sizes[0]), len(sizes), max(1, most // sizes[0])), len(sizes)]
    return [sizes[a:b] for a, b in zip(cuts, cuts[1:])]


def _vertex_max(A, idx, cidx):
    """Largest ratio over the vertex directions of {||(Hz)_Kbar||_1 <= 1}.

    Each vertex is the null vector of m-1 rows of H_Kbar (a degenerate
    choice of rows still yields a feasible direction), taken from a batched
    SVD, and its ratio from the product of its whole batch; the first
    largest ratio wins.  Returns the ratio and its direction.

    Only the candidates of ``_VertexScreen`` are SVD'd: every vertex is
    first scored from its cofactor vector, which bounds the ratio its SVD
    vector would score, and a vertex whose bound cannot reach the running
    best, nor the largest lower bound in its batch, can be neither its
    batch's first maximum nor a new best.  The candidates' rows of the batch
    then hold their SVD vectors and the other rows their cofactor vectors,
    and the whole batch is multiplied out again.  LAPACK factors each matrix
    of a stack on its own, so every candidate scores the bits it would
    score if every vertex were SVD'd (see ``_abs_sums``).  A batch with no
    candidate is skipped.  A call with fewer than ``_SCREEN_FROM`` vertices
    SVDs them all.
    """
    n, m = A.shape
    hc = A[cidx]
    combos = itertools.combinations(range(cidx.size), m - 1)
    sizes = _batch_sizes(math.comb(cidx.size, m - 1), n)
    buf = np.empty((max(sizes), n))
    screen = _VertexScreen(A, idx, cidx) if sum(sizes) >= _SCREEN_FROM else None
    least, best_z = np.inf, None        # -ratio and its vertex
    for b in sizes:
        rows = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, b)),
                           dtype=np.intp, count=b * (m - 1)).reshape(b, m - 1)
        if screen is None:
            C, look = np.empty((b, m)), slice(None)
        else:
            C = screen.cofactors(rows)
            hi, lo = screen.bounds(C, rows, *_abs_sums(C, A, buf, idx, cidx))
            look = (hi >= max(-least, lo.max())).nonzero()[0]
            if not look.size:
                continue
        Z = np.linalg.svd(hc[rows[look]])[2][:, -1, :]
        C[look] = Z
        on, off = _abs_sums(C, A, buf, idx, cidx)
        least, best_z = _first_least(-(on[look] / off[look]), Z, least, best_z)
    return -least, best_z


#: dgesdd's backward error assumed by ``_VertexScreen``, in units of m^2 u
_SVD_ERROR = 4096
#: Fewest vertices ``_vertex_max`` screens: the screen's fixed cost, about
#: 80 us, is that of SVDing some 40 vertices (m = 2 or 3, one BLAS thread)
_SCREEN_FROM = 64


@functools.lru_cache(maxsize=None)
def _minor_tables(m):
    """For each step k of the Laplace expansion in ``_VertexScreen.cofactors``,
    the columns (k+1)-column minors expand along and the positions of their
    k-column sub-minors, both in lexicographic order of the column sets."""
    tables = []
    for k in range(m - 1):
        pos = {s: i for i, s in enumerate(itertools.combinations(range(m), k))}
        sets = list(itertools.combinations(range(m), k + 1))
        cols = np.array(sets, dtype=np.intp).reshape(len(sets), k + 1)
        subs = np.array([[pos[s[:t] + s[t + 1:]] for t in range(k + 1)] for s in sets],
                        dtype=np.intp)
        tables.append((cols, subs))
    return tables


class _VertexScreen:
    """Cofactor null vectors of the vertices' row sets and bounds on the
    ratio their SVD vectors score.

    Let M be the m-1 rows of H_Kbar (scaled to max|H| in [1, 2)) that
    define a vertex, c its cofactor vector, c_j = (-1)^j det(M without column
    j), so Mc = 0 and ||c|| = sigma_1 ... sigma_(m-1) of M, and c^ the c
    computed here.  u = eps/2, g_k = k u / (1 - k u); a = sum_K ||h_i||,
    b = sum_Kbar ||h_i|| (row 2-norms), each raised by 0.1% and n m 2^-700.

    Direction error.  c^ comes from a Laplace expansion, one row at a
    time; each step sums k + 1 rounded products, so c^_j is within g_(m^2)
    per(|M without column j|) <= g_(m^2) Q of c_j, Q the product of M's row
    1-norms, and ||c^ - c|| <= 1.01 sqrt(m) m^2 u Q.  The SVD vector v^ is
    assumed to be within C u of an exact null vector of a matrix M + E with
    ||E|| <= C u ||M||, C = ``_SVD_ERROR`` m^2.  LAPACK states its SVD's
    error as p(m) eps ||M|| with p growing modestly; against exact rational
    cofactors, ||z - v|| stayed below 1.1 m^2 u F^(m-1) / ||c|| (z and v as
    below) on 3,000 matrices with m = 2-6 (Gaussian, nearly parallel and
    half-integer rows; OpenBLAS 0.3 dgesdd, x86-64), against the 7 C u
    F^(m-1) / ||c^|| assumed here, a margin above 10^4.  Then sin of the
    angle between the null vectors of M and M + E is at most
    ||E|| / sigma_(m-1)(M), and sigma_(m-1) = ||c|| / (sigma_1 ... sigma_(m-2))
    >= ||c|| / F^(m-2), F the Frobenius norm of M.  With the sign that aligns
    them and ||c^ - c|| <= ||c^|| / 2, the unit vectors z = v^/||v^|| and
    w = c^/||c^|| are within d = (7 C F^(m-1) u + 4.04 sqrt(m) m^2 u Q) /
    ||c^|| of each other; a vertex is screened only when d <= 2^-10, which
    implies that condition on ||c^ - c||.  With ||c^|| >= 2^-300 (below),
    underflow in c^, at most m! m 2^-1074, and inside the SVD, far below
    u ||M|| >= u ||c||^(1/(m-1)), stays far inside d.

    Ratio error.  A computed product, absolute value and sum over rows R
    is within (g_m + 1.01 g_(n-1)) sum_R |h_i||x| <= eta ||x|| sum_R ||h_i||
    of the true sum for any x, eta = 1.01 (n + m) u, so from on^, off^, the
    sums scored from c^, and on_w = on^ / ||c^||, off_w = off^ / ||c^||,
    rho = on_w / off_w, the ratio scored from v^ is at most (1 + u)(on_w +
    a t) / (off_w - b t) = (1 + u)(rho + t (a + rho b) / (off_w - b t)),
    t = d + 2 eta, and at least (1 - u)(rho - t (a + rho b) / off_w).  With
    b t <= off_w / 2, r the ratio scored from c^ (within u of rho) and
    S = 16 t (a + r b) / off_w, hi = r + S and lo = r - S bound it: b / off_w
    >= 0.99, so S >= 60 u r, which covers the factors 1 +- u, the halved
    denominator and the rounding of hi, lo, S and ||c^||.  Gradual
    underflow loses at most n m 2^-1074 per sum, below u n m 2^-700 ||c^||
    once ||c^||^2 >= 2^-600, which the n m 2^-700 in a and b covers.  A
    vertex with ||c^||^2 < 2^-600 (c^ = 0 on a rank-deficient M, or tiny
    rows), d > 2^-10, b t > off_w / 2 or a non-finite r gets hi = inf and
    lo = -inf.
    """

    def __init__(self, A, idx, cidx):
        n, m = A.shape
        u = np.finfo(float).eps / 2
        self.hc = A[cidx]
        self.tables = _minor_tables(m)
        self.signs = (-1.0) ** np.arange(m)
        self.l1 = np.abs(self.hc).sum(axis=1)
        self.sq = np.square(self.hc).sum(axis=1)
        norms = np.sqrt(np.square(A).sum(axis=1))
        tiny = n * m * 2.0 ** -700
        self.a = 1.001 * float(norms[idx].sum()) + tiny
        self.b = 1.001 * float(norms[cidx].sum()) + tiny
        self.k_svd = 7.0 * _SVD_ERROR * m * m * u
        self.k_cof = 4.04 * math.sqrt(m) * m * m * u
        self.eta2 = 2.02 * (n + m) * u
        self.power = (m - 1) / 2.0

    def cofactors(self, rows):
        """c for each row set, by Laplace expansion along one row at a time:
        at m = 2 a swap, at m = 3 the cross product."""
        P = np.ones((rows.shape[0], 1))          # the minor of no rows
        for k, (cols, subs) in enumerate(self.tables):
            R = self.hc[rows[:, k]]
            acc = np.zeros((rows.shape[0], cols.shape[0]))
            for t in range(k + 1):
                term = R[:, cols[:, t]] * P[:, subs[:, t]]
                if (k + t) % 2:
                    acc -= term
                else:
                    acc += term
            P = acc
        # the minor without column j is the (m-1-j)-th set of m-1 columns
        return P[:, ::-1] * self.signs

    def bounds(self, C, rows, on, off):
        """hi and lo for each vertex, from its c^ and the sums scored from it."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = on / off
            cc = np.square(C).sum(axis=1)
            norm = np.sqrt(cc)
            d = (self.k_svd * self.sq[rows].sum(axis=1) ** self.power
                 + self.k_cof * self.l1[rows].prod(axis=1)) / norm
            t = d + self.eta2
            off_w = off / norm
            S = 16.0 * t * (self.a + r * self.b) / off_w
            ok = ((cc >= 2.0 ** -600) & (d <= 2.0 ** -10) & (self.b * t <= 0.5 * off_w)
                  & np.isfinite(S))
        return np.where(ok, r + S, np.inf), np.where(ok, r - S, -np.inf)


def _pattern_max(A, idx, cidx):
    """Largest ratio over the sign patterns of (Hz)_K, one l1 regression each.

    For pattern sigma, max sigma'(Hz)_K over ||(Hz)_Kbar||_1 <= 1 is
    1 / min{||H_Kbar z||_1 : g'z = 1}, g = H_K' sigma.  ``_l1_min`` finds
    that minimum's direction by eliminating the coordinate where |g| peaks,
    which leaves one LAD fit with m - 1 unknowns (none for m = 1) whose
    matrix has full column rank whenever H_Kbar has.  A pattern with g = 0
    is skipped before solving: its ratio is 0.  Rows of H_Kbar equal up to
    sign are first collapsed into one row times their count, which is exact
    and spares LAD the degenerate pivots of repeated rows (a +-1 Toeplitz H
    with m = 5 has at most 16 rows up to sign).  The ratio is recomputed
    from each z.
    Returns the ratio and its direction.
    """
    n = A.shape[0]
    hk, hc = A[idx], _collapsed_rows(A[cidx])[0]
    buf = np.empty((1, n))
    least, best_z = -0.0, None     # -ratio and its z; -least is 0.0 until a ratio exceeds 0
    for tail in itertools.product((1.0, -1.0), repeat=idx.size - 1):
        g = np.array((1.0,) + tail) @ hk
        j = int(np.abs(g).argmax())
        if g[j] == 0.0:
            continue               # H_K' sigma = 0: ratio 0
        z, est = _l1_min(hc, g, lad_estimate)
        if est is not None and est.status != "optimal":
            raise LadSysIdError(f"sign-pattern LAD solve ended with status {est.status}")
        on, off = _abs_sums(z[None, :], A, buf, idx, cidx)
        least, best_z = _first_least(-(on / off), z[None, :], least, best_z)
    return -least, best_z


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
    normalized and scored; the others are skipped, and a batch none of whose
    directions may reach it is never multiplied out.  The first block of
    whole batches, holding ``_PROBES`` directions or more, is normalized and
    scored whole.  Its first ``_PROBES`` / 2 and best-scored ``_PROBES`` / 2
    directions u then give the probes g = H' sign(Hu).  The bound is not
    built for an empty K, for n <= ``_PROBES``, where it would read as many
    numbers per direction as full scoring does, or when fewer than 16
    directions per probe are left.  In each later block (``_BLOCK_ENTRIES``), the first look
    reads the draws z as drawn: z passes when lb(z) = max_g |g'z| - slack
    top, a lower bound on ||Hz||_1 because ||Hz||_1 = max c'Hz over sign
    vectors c, may not exceed cut(z) = (worst + 2) ||(Hz)_K||_1 up to
    rounding, with the K part taken from the |K| support rows.  That costs
    O(m (_PROBES + |K|)) per direction.  A direction that passes is normalized
    and gets a second look: its ||Hz||_1 from a product of its own, less
    the slack, against the cut of the normalized direction.  The directions
    that pass both are scored exactly as a full scoring would score them.
    A batch where more than a quarter pass is normalized and scored whole.
    When more than a quarter of a block pass the first look, the block
    skips the second look and is normalized and scored whole, and if that
    block is the first one bounded, the call scores every later batch whole
    too.

    Why the bits hold.  Each survivor is normalized and scored, from the
    product of its whole batch, with the bits a full scoring gives it (see
    ``_abs_sums``).  A skipped direction's computed score is strictly above
    ``worst``, shown below, so it is above every later ``worst`` too.  So
    ``worst_gap``, the verdict and the witness are those of scoring every
    direction.  The draws are made a block at a time, and where a block ends
    decides only which batches are bounded: one stream yields the same values.

    The slack, for a normalized z.  Let u = eps/2, g_k = k u / (1 - k u), T
    and on the total and K sum a full scoring computes, and M(z) = sum_ij
    |H_ij| |z_j| (M_K over the rows K); these bounds hold for any order of
    summation, with or without FMA, while (n + m) u < 0.01.  Each entry of a
    computed product Hz is within g_m of the true one, relative to its share
    of M.  So T is at least ||Hz||_1 - (g_m + 1.01 g_(n-1)) M, and a total
    from a product of its own is at most ||Hz||_1 plus as much.  A computed
    probe is within g_(n-1) |H|'1 of H'c entrywise and its product with z
    within g_m (1 + g_(n-1)) M of g'z, so ||Hz||_1 >= |c'Hz| >= max_g |g'z|
    - 1.1 (n + m) u M.  Both lower estimates of T are thus within 2.2 (n +
    m) u M of below T.  slack = 16 (n + m) u sum|H|, as computed, exceeds
    15 (n + m) u M, as M <= sum|H| (1 + (m + 2) u) for a normalized z; that
    covers the estimates and their rounding.  On the K side, the support
    rows' sum on_p and on differ by at most 2.1 (|K| u on_p + m u M_K).
    With rel = 4 (|K| + m) u and floor = rel sum|H_K| + 2e-300, on is at
    most hi = on_p (1 + rel) + floor, and above 1e-300 whenever on_p (1 -
    rel) > floor, so whenever on_p > floor / (1 - rel) as computed (floor's
    2e-300 is twice the threshold, which covers that rounding); where that
    fails, on may take the score's unscaled branch, and cut is infinite.
    Every computed score is at least -1 - 3 n u, so worst + 2 > 0.99 and
    |worst| < 1.03 (worst + 2).  If T >= (worst + 2)(1 + 8u) on and on >
    1e-300, then x = T / on - 2 >= worst + 8u (worst + 2).  The score's
    subtraction and division scale x by 1 +- 2.01u at most, which cannot
    undo that margin, so the computed score is above ``worst``.  cut =
    (worst + 2) grow hi, grow = 1 + 16u, computed as c (1 + rel) on_p + c
    floor with c = (worst + 2) grow, whose five roundings stay inside
    grow's margin, is at least (worst + 2)(1 + 8u) on, so lb > cut implies
    it.  Gradual underflow loses less than 2^-1074 per
    product, which the slack (max|H| >= 1 after the scaling) and floor's
    2e-300 cover.

    The first look, on z as drawn.  A full scoring scores zh = D z / nu, nu
    the norm it computes and D diagonal within u of I (the division's
    rounding), so nu times each entry of zh's computed product is within
    g_(m+1) of (Hz)_i relative to its share of M(z).  Every bound above thus
    holds between nu T and nu on, from zh, and lb(z) and on_p, from z, with
    g_(m+1) for g_m, which the constants 16 and 4 cover.  Let top = 1.001
    sqrt(m) max_ij |z_ij| over the block: M(z) <= sum|H| top and nu <= top,
    so the slack and the floor are scaled by top, and both sides of lb > cut
    scale with nu but for the 1e-300 threshold, which the scaled floor
    covers.  A block with top below 2^-900, where underflow could outgrow
    the slack, is scored whole.
    """
    trials = _count("trials", trials, 1)
    A = _unit_scaled(_as_matrix(H))
    n, m = A.shape
    idx = _support_array(K, n)

    rng = rng_from_seed(seed)
    worst, worst_z = np.inf, None
    sizes = _batch_sizes(trials, n)
    buf = np.empty((max(sizes), n))
    bound = None               # a _ProbeBound while bounding pays
    first = []                 # the first block's scores, for the probes
    most = max(1, _BLOCK_ENTRIES // max(m, _PROBES, idx.size))
    for j, block in enumerate(_blocks(sizes, _PROBES, most)):
        Zb = rng.standard_normal((sum(block), m))
        keep = bound.survivors(Zb, worst, buf) if bound else None
        start = 0
        for b in block:
            Z = Zb[start:start + b]
            rows = np.arange(b) if keep is None else keep[start:start + b].nonzero()[0]
            start += b
            if not rows.size:
                continue
            if 4 * rows.size > b:
                rows = slice(None)
            _normalize(Z, rows)
            on, total = _abs_sums(Z, A, buf, idx, slice(None), rows)
            gaps = total - 2.0 * on
            scores = np.where(on > 1e-300, gaps / np.maximum(on, 1e-300), gaps)
            if j == 0:
                first.append(scores)
            worst, worst_z = _first_least(scores, Z[rows], worst, worst_z)
        if j == 0 and idx.size and n > _PROBES and trials - Zb.shape[0] >= 16 * _PROBES:
            bound = _ProbeBound(A, idx, Zb, np.concatenate(first))
        elif j == 1 and keep is None:
            bound = None       # the bound does not pay on this input

    if worst <= 0.0:
        return SupportCert(_support_tuple(idx), "falsified", worst, "mc", trials,
                           witness=worst_z)
    return SupportCert(_support_tuple(idx), "unfalsified", worst, "mc", trials)


def _normalize(Z, rows=slice(None)):
    """Divide the rows ``rows`` of Z by their norms in place; a zero row stays zero."""
    norms = np.linalg.norm(Z[rows], axis=1)
    norms[norms == 0] = 1.0
    Z[rows] /= norms[:, None]


class _ProbeBound:
    """The falsifier's two lower bounds on ||Hz||_1 and its cut;
    ``certify_support_mc`` derives them and their slack."""

    def __init__(self, A, idx, Z, scores):
        n, m = A.shape
        u = np.finfo(float).eps / 2
        best = np.argsort(scores, kind="stable")[:_PROBES - _PROBES // 2]
        U = Z[np.concatenate([np.arange(min(_PROBES // 2, len(Z))), best])]
        self.A = A
        self.hk = A[idx]                                             # |K| x m
        # the probes' rows, then the support rows: one product serves both
        self.looks = np.vstack([[np.sign(A @ z) @ A for z in U], self.hk])
        self.probes = len(U)
        self.slack = 16.0 * (n + m) * u * float(np.abs(A).sum())
        self.rel = 4.0 * (idx.size + m) * u
        self.floor = self.rel * float(np.abs(self.hk).sum()) + 2e-300
        self.grow = 1.0 + 16.0 * u
        self.root_m = 1.001 * math.sqrt(m)

    def _passes(self, low, on, worst, scale):
        """low <= cut(z) for each direction, where on holds its sums over
        the support rows and ``scale`` bounds its norm."""
        c = (worst + 2.0) * self.grow
        floor = self.floor * scale
        return (low <= c * (1.0 + self.rel) * on + c * floor) | (on <= floor / (1.0 - self.rel))

    def survivors(self, Z, worst, buf):
        """Which rows of the draws Z, taken as drawn, may score at most
        ``worst`` once normalized, as a boolean mask, or None when more than
        a quarter of them pass the first look; Z is left as it is."""
        top = self.root_m * float(max(Z.max(), -Z.min()))
        if not top > 2.0 ** -900:
            return None
        # each direction is a column here, so the reductions run across rows
        W = self.looks @ Z.T
        np.abs(W, out=W)
        low = W[:self.probes].max(axis=0) - self.slack * top
        keep = self._passes(low, W[self.probes:].sum(axis=0), worst, top)
        looked = keep.nonzero()[0]
        if 4 * looked.size > keep.size:
            return None
        Zl = Z[looked]
        _normalize(Zl)
        W = self.hk @ Zl.T
        on = np.abs(W, out=W).sum(axis=0)
        for start in range(0, looked.size, buf.shape[0]):
            part = slice(start, start + buf.shape[0])
            V = np.matmul(Zl[part], self.A.T, out=buf[:len(Zl[part])])
            low = np.abs(V, out=V).sum(axis=1) - self.slack
            keep[looked[part]] = self._passes(low, on[part], worst, 1.0)
        return keep


def empirical_recovery_rate(H, K, trials: int, magnitude: Magnitude, seed: int) -> float:
    """Fraction of random-instance trials where LAD recovers the parameters.

    Each trial draws x ~ N(0, I) and outlier magnitudes on K from
    ``magnitude``, forms y = Hx + e and solves the LAD problem; success
    means x is recovered to ``_RECOVERY_TOL`` relative error.
    """
    trials = _count("trials", trials, 1)
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
    trials = _count("trials", trials, 1)
    z = np.atleast_1d(_real("z", z))
    if z.shape != (m,):
        raise DimensionError(f"z has shape {z.shape}, expected ({m},)")
    if not abs(np.linalg.norm(z) - 1.0) <= 1e-8:     # a NaN fails it too
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
