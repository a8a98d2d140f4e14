"""Dense linear programming over a finite box by the bounded-variable primal simplex.

Every LP in the package has one shape: min c'w subject to B w = b and
lo <= w <= hi, with few rows and every bound finite.  The LAD vertex
certificate asks only whether such a w exists (zero cost); the certifier's
sign-pattern LPs maximize one variable (cost -e_s).  ``solve_lp`` runs both
in one loop.  Phase 1 minimizes the sum of artificial variables, carrying
the basic values from pivot to pivot, and stops as soon as that sum reaches
zero; a zero-cost problem ends there.  Otherwise phase 2 optimizes c'w from
the phase-1 basis, with any artificial still basic pinned at zero, and
returns the row multipliers c_B B^-1.  Each iteration is one pricing product
over the columns plus O(q^2) work on the q x q basis.  A finite box has no
unbounded direction, so the statuses are optimal, infeasible,
iteration_limit and inaccurate.  Both callers pass float arrays with at
least one row and finite bounds, so the kernel takes them as they are.

Pricing takes the largest gain (Dantzig's rule), with Bland's smallest-index
rule engaged while steps are degenerate so the method cannot cycle.  The
basis inverse is kept explicitly and refreshed by row reduction; it drifts
over many pivots, so an optimal exit is re-checked against the original rows
and bounds.  On a violation the basic values (and multipliers) are rebuilt
from the basis columns; a point still infeasible after that, or rebuilt
multipliers that price a column in, is reported as ``inaccurate``, never
``optimal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LpResult", "solve_lp"]


@dataclass
class LpResult:
    status: str                     # optimal | infeasible | iteration_limit | inaccurate
    x: Optional[np.ndarray] = None
    iterations: int = 0
    #: row multipliers c_B B^-1 of the final basis; set when optimal
    y: Optional[np.ndarray] = None


def _violation(a, b, lo, hi, v) -> float:
    """Largest row residual or bound excess of v in a v = b, lo <= v <= hi."""
    return max(float(np.abs(a @ v - b).max(initial=0.0)),
               float((lo - v).max(initial=0.0)), float((v - hi).max(initial=0.0)))


def solve_lp(c, a, b, lo, hi, max_iter: Optional[int] = None) -> LpResult:
    """min c'w s.t. a w = b, lo <= w <= hi (every bound finite): phase 1, then phase 2.

    Phase 1 is the bounded-variable primal simplex on min 1'art s.t.
    a w + S art = b, art >= 0, S the signs that make the start w = lo
    feasible.  Basic values are carried from pivot to pivot, an artificial
    that leaves the basis is dropped (a feasible w has every artificial at
    zero, so the verdict is unchanged), and the phase stops as soon as the
    artificial sum reaches zero.  When c is nonzero, phase 2 prices c from
    that basis; artificials still basic are pinned at zero, and its
    optimality tolerance is 1e-9 * max|c|.  ``max_iter`` caps the pivots and
    bound flips of both phases together; the default is 200 + 50 (q + p) for
    q rows and p variables.
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
    cost_b = np.ones(q)                  # phase-1 cost of each basic variable
    lo_b, hi_b = np.zeros(q), np.full(q, np.inf)
    iterations = 0
    gtol = 1e-9
    phase2 = False

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            bland = False
            gain = None
            while p and (phase2 or float(cost_b @ xb) > ztol):
                if gain is None:
                    # moving w_j along dirs_j lowers the phase's cost at rate gain_j
                    gain = (cost_b @ binv) @ a
                    if phase2:
                        gain -= c
                    gain *= dirs
                j = int((gain > gtol).argmax() if bland else gain.argmax())
                if not gain[j] > gtol:
                    break                # optimum of the phase
                if iterations >= max_iter:
                    return LpResult(status="iteration_limit", iterations=iterations)
                iterations += 1
                direction = float(dirs[j])
                u = binv @ a[:, j]
                delta = direction * u    # basic values move by -t * delta

                ratios = (xb - np.where(delta > 0, lo_b, hi_b)) / delta
                ratios[np.abs(delta) <= 1e-11] = np.inf
                np.maximum(ratios, 0.0, out=ratios)
                r = int(ratios.argmin())
                t_star = float(ratios[r])
                own_cap = float(cap[j])
                if own_cap <= t_star:    # bound flip: the basis, and so the prices, stay
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
                cost_b[r] = c[j] if phase2 else 0.0
                lo_b[r], hi_b[r] = lo[j], hi[j]
                row = binv[r] / u[r]
                binv -= u[:, None] * row
                binv[r] = row
                gain = None
                bland = t_star <= ztol
            if phase2:
                break
            if float(cost_b @ xb) > 1e-7 * scale:
                return LpResult(status="infeasible", iterations=iterations)
            if not c.any():
                break
            phase2 = True
            structural = basis < p
            hi_b[~structural] = 0.0
            cost_b = np.zeros(q)
            cost_b[structural] = c[basis[structural]]
            gtol = 1e-9 * float(np.abs(c).max())

    structural = basis < p
    w = np.where(dirs < 0, hi, lo)
    w[basis[structural]] = xb[structural]
    y = cost_b @ binv if phase2 else np.zeros(q)
    if _violation(a, b, lo, hi, w) > ztol:
        # rebuild the basic values from the basis columns and check again (the
        # sign of a basic artificial's column only flips that artificial's
        # value, and its zero phase-2 cost leaves the multipliers alone)
        cols = np.zeros((q, q))
        cols[:, structural] = a[:, basis[structural]]
        art = np.flatnonzero(~structural)
        cols[basis[art] - p, art] = 1.0
        w[basis[structural]] = 0.0
        w[basis[structural]] = np.linalg.solve(cols, b - a @ w)[structural]
        if _violation(a, b, lo, hi, w) > ztol:
            return LpResult(status="inaccurate", x=w, iterations=iterations)
        if phase2:
            y = np.linalg.solve(cols.T, cost_b)
            if ((y @ a - c) * dirs > gtol).any():
                # the prices that ended phase 2 had drifted: not optimal
                return LpResult(status="inaccurate", x=w, iterations=iterations)
    return LpResult(status="optimal", x=w, iterations=iterations, y=y)

