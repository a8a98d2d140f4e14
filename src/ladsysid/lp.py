"""Dense linear programming by the bounded-variable primal simplex method.

``solve_lp`` takes two routes, chosen by the problem alone.  A problem with
no inequality rows, zero cost and every bound finite asks only whether some
w has B w = b, lo <= w <= hi: the package's vertex-certificate LP.  It goes
to a phase-1-only kernel, which minimizes the sum of artificial variables,
carries the basic values from pivot to pivot and stops as soon as that sum
reaches zero; each iteration is one pricing product over the columns plus
O(q^2) work on the q x q basis.  Every other problem goes through the general
form: inequality rows get slacks, phase 1 finds a basic feasible solution and
phase 2 optimizes the real objective, with infinite bounds and unbounded rays
allowed (nonbasic variables rest at a finite bound, or at zero when free).

Both routes price by Dantzig's largest-violation rule, with Bland's
smallest-index rule engaged while steps are degenerate so the method cannot
cycle.  Problem sizes here are small (at most a few thousand variables), so
the basis inverse is kept explicitly and refreshed by row reduction.  That
inverse drifts over hundreds of pivots, so an optimal exit is re-checked
against the original rows and bounds; on a violation the inverse is rebuilt
from the basis columns (and phase 2 resumes), and a point still infeasible
after that is reported as ``inaccurate``, never ``optimal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError

__all__ = ["LpProblem", "LpResult", "solve_lp"]

_LO, _HI, _FREE, _BASIC = 0, 1, 2, 3


@dataclass
class LpProblem:
    """General-form LP: optimize c'x subject to a_ub x <= b_ub, a_eq x = b_eq.

    ``bounds`` lists one (lo, hi) pair per variable, as a list of pairs or an
    (n, 2) array, ``None`` (or an infinity) meaning unbounded on that side; a
    NaN bound is an error.  The default is (0, None) for every variable.
    """

    c: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    bounds: Optional[list] = None
    sense: str = "min"


@dataclass
class LpResult:
    status: str                     # optimal | infeasible | unbounded | iteration_limit | inaccurate
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    ray: Optional[np.ndarray] = None  # feasible unbounded direction, original variables
    iterations: int = 0
    #: row multipliers c_B B^-1 of the final basis, inequality rows first, for
    #: the minimized objective (-c under sense="max"); set when optimal
    y: Optional[np.ndarray] = None


class _BoundedSimplex:
    """Simplex state over the internal system A v = b, lo <= v <= hi.

    Columns 0..nv-1 are the problem variables, columns nv..nv+q-1 the
    artificials (identity columns signed to make the start feasible).
    """

    def __init__(self, a, b, lo, hi):
        self.a = a
        self.b = b
        self.q, self.nv = a.shape
        q, nv = self.q, self.nv
        self.ztol = 1e-9 * max(1.0, float(np.abs(b).max()) if b.size else 1.0)
        self.iterations = 0
        self.ray = None

        self.lo_ext = np.concatenate([lo, np.zeros(q)])
        self.hi_ext = np.concatenate([hi, np.full(q, np.inf)])

        status = np.full(nv + q, _FREE, dtype=np.int8)
        status[np.isfinite(self.lo_ext)] = _LO
        finite_hi = np.isfinite(self.hi_ext) & (status == _FREE)
        status[finite_hi] = _HI
        self.status = status

        resid = b - a @ self._values()[:nv]
        signs = np.where(resid >= 0, 1.0, -1.0)
        self.art = np.eye(q) * signs
        self.basis = np.arange(nv, nv + q)
        self.status[self.basis] = _BASIC
        self.binv = np.eye(q) * signs  # inverse of the signed-identity basis

    # -- helpers ------------------------------------------------------------

    def _values(self):
        """Values of all nv+q variables with basic entries left at zero."""
        v = np.zeros(self.nv + self.q)
        at_lo = self.status == _LO
        at_hi = self.status == _HI
        v[at_lo] = self.lo_ext[at_lo]
        v[at_hi] = self.hi_ext[at_hi]
        return v

    def _col(self, j):
        if j < self.nv:
            return self.a[:, j]
        return self.art[:, j - self.nv]

    def _basic_values(self, v=None):
        if v is None:
            v = self._values()
        rhs = self.b - self.a @ v[: self.nv] - self.art @ v[self.nv:]
        return self.binv @ rhs

    def solution(self):
        v = self._values()
        v[self.basis] = self._basic_values(v)
        return v[: self.nv], v[self.nv:]

    def pin_artificials(self):
        self.hi_ext[self.nv:] = 0.0

    def refactor(self):
        """Recompute the basis inverse from the basis columns."""
        self.binv = np.linalg.inv(np.column_stack([self._col(j) for j in self.basis]))

    # -- core loop ----------------------------------------------------------

    def run(self, cost, max_iter):
        """Optimize cost'v over the current basis.  Returns a status string."""
        nv, q = self.nv, self.q
        dtol = 1e-9 * max(1.0, float(np.abs(cost).max()) if cost.size else 1.0)
        fixed = self.lo_ext >= self.hi_ext
        bland = False

        while True:
            if self.iterations >= max_iter:
                return "iteration_limit"
            self.iterations += 1

            y = cost[self.basis] @ self.binv
            d = cost - np.concatenate([y @ self.a, y @ self.art])

            can_inc = (self.status == _LO) | (self.status == _FREE)
            can_dec = (self.status == _HI) | (self.status == _FREE)
            viol = np.maximum(np.where(can_inc & ~fixed, -d, 0.0),
                              np.where(can_dec & ~fixed, d, 0.0))

            cand = np.nonzero(viol > dtol)[0]
            if cand.size == 0:
                return "optimal"
            if bland:
                j = int(cand[0])
            else:
                j = int(cand[np.argmax(viol[cand])])
            direction = 1.0 if (can_inc[j] and d[j] < -dtol) else -1.0

            u = self.binv @ self._col(j)
            xb = self._basic_values()
            delta = direction * u

            lo_b = self.lo_ext[self.basis]
            hi_b = self.hi_ext[self.basis]
            ratios = np.full(q, np.inf)
            dec = delta > 1e-11
            inc = delta < -1e-11
            ratios[dec] = (xb[dec] - lo_b[dec]) / delta[dec]
            ratios[inc] = (xb[inc] - hi_b[inc]) / delta[inc]
            ratios[~np.isfinite(ratios)] = np.inf
            np.maximum(ratios, 0.0, out=ratios)

            min_ratio = float(ratios.min(initial=np.inf))
            own_cap = self.hi_ext[j] - self.lo_ext[j]
            t_star = min(min_ratio, own_cap)

            if not np.isfinite(t_star):
                self.ray = self._make_ray(j, direction, u)
                return "unbounded"

            if own_cap <= min_ratio:
                self.status[j] = _HI if self.status[j] == _LO else _LO
                bland = t_star <= self.ztol
                continue

            if bland:
                tie = np.nonzero(ratios <= t_star + self.ztol)[0]
                r = int(tie[np.argmin(self.basis[tie])])
            else:
                tie = np.nonzero(ratios <= t_star * (1 + 1e-12) + 1e-300)[0]
                r = int(tie[np.argmax(np.abs(delta[tie]))])

            leaving = self.basis[r]
            leave_stat = _LO if delta[r] > 0 else _HI
            if not np.isfinite(self.lo_ext[leaving]) and leave_stat == _LO:
                leave_stat = _FREE
            if not np.isfinite(self.hi_ext[leaving]) and leave_stat == _HI:
                leave_stat = _FREE
            self.status[leaving] = leave_stat
            self.status[j] = _BASIC
            self.basis[r] = j

            piv = u[r]
            self.binv[r] /= piv
            others = np.arange(q) != r
            self.binv[others] -= np.outer(u[others], self.binv[r])

            bland = t_star <= self.ztol

    def _make_ray(self, j, direction, u):
        ray = np.zeros(self.nv + self.q)
        ray[j] = direction
        ray[self.basis] -= direction * u
        return ray[: self.nv]


def _violation(a, b, lo, hi, v) -> float:
    """Largest row residual or bound excess of v in a v = b, lo <= v <= hi."""
    return max(float(np.abs(a @ v - b).max(initial=0.0)),
               float((lo - v).max(initial=0.0)), float((v - hi).max(initial=0.0)))


def _box_feasibility(a, b, lo, hi, max_iter) -> LpResult:
    """Find w with a w = b, lo <= w <= hi (every bound finite): phase 1 alone.

    Bounded-variable primal simplex on min 1'art s.t. a w + S art = b, art >= 0,
    S the signs that make the start w = lo feasible.  Basic values are carried
    from pivot to pivot, an artificial that leaves the basis is dropped (a
    feasible w has every artificial at zero, so the verdict is unchanged), and
    the loop stops as soon as the artificial sum reaches zero.  Each iteration
    is one pricing product with a plus O(q^2) work on the q x q basis inverse.
    The candidate w is re-checked against the rows and bounds like every
    optimal exit of ``solve_lp``: on a violation the inverse is rebuilt once
    from the basis columns, and a point still infeasible is ``inaccurate``.
    """
    q, p = a.shape
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
    bland = False
    gain = None

    with np.errstate(divide="ignore", invalid="ignore"):
        while p and float(cost_b @ xb) > ztol:
            if gain is None:
                # moving w_j along dirs_j lowers the artificial sum at rate gain_j
                gain = ((cost_b @ binv) @ a) * dirs
            j = int((gain > 1e-9).argmax() if bland else gain.argmax())
            if not gain[j] > 1e-9:
                break                    # phase-1 optimum above zero
            if iterations >= max_iter:
                return LpResult(status="iteration_limit", iterations=iterations)
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
        return LpResult(status="infeasible", iterations=iterations)
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
            return LpResult(status="inaccurate", x=w, iterations=iterations)
    return LpResult(status="optimal", x=w, iterations=iterations, y=np.zeros(q))


def _two_phase(c, a_ub, b_ub, a_eq, b_eq, lo, hi, max_iter) -> LpResult:
    """General form, min c'x: inequality rows get slacks, then phase 1 and phase 2."""
    nx = c.size
    n_ub = b_ub.size
    n_rows = n_ub + b_eq.size
    if n_rows:
        a_full = np.block([
            [a_ub, np.eye(n_ub)],
            [a_eq, np.zeros((b_eq.size, n_ub))],
        ])
    else:
        a_full = np.zeros((0, nx + n_ub))
    b_full = np.concatenate([b_ub, b_eq])
    lo_full = np.concatenate([lo, np.zeros(n_ub)])
    hi_full = np.concatenate([hi, np.full(n_ub, np.inf)])
    c_full = np.concatenate([c, np.zeros(n_ub)])

    if max_iter is None:
        max_iter = 200 + 50 * (a_full.shape[0] + a_full.shape[1])

    sx = _BoundedSimplex(a_full, b_full, lo_full, hi_full)

    phase1_cost = np.concatenate([np.zeros(nx + n_ub), np.ones(sx.q)])
    status = sx.run(phase1_cost, max_iter)
    if status == "iteration_limit":
        return LpResult(status="iteration_limit", iterations=sx.iterations)
    _, art = sx.solution()
    feas_scale = max(1.0, float(np.abs(b_full).max()) if b_full.size else 1.0)
    if art.sum() > 1e-7 * feas_scale:
        return LpResult(status="infeasible", iterations=sx.iterations)

    sx.pin_artificials()
    phase2_cost = np.concatenate([c_full, np.zeros(sx.q)])
    status = sx.run(phase2_cost, max_iter + sx.iterations)
    v, _ = sx.solution()
    feas_tol = 1e-9 * feas_scale
    if status == "optimal" and _violation(a_full, b_full, lo_full, hi_full, v) > feas_tol:
        # the basis inverse, updated by row reduction at every pivot, has
        # drifted: rebuild it and let phase 2 finish from the same basis
        sx.refactor()
        status = sx.run(phase2_cost, max_iter + sx.iterations)
        v, _ = sx.solution()
        if status == "optimal" and _violation(a_full, b_full, lo_full, hi_full, v) > feas_tol:
            status = "inaccurate"
    x = v[:nx]
    if status == "unbounded":
        return LpResult(status="unbounded", ray=sx.ray[:nx], iterations=sx.iterations)
    if status != "optimal":
        return LpResult(status=status, x=x, iterations=sx.iterations)
    return LpResult(status="optimal", x=x, iterations=sx.iterations,
                    y=phase2_cost[sx.basis] @ sx.binv)


def _parse_bounds(bounds, nx):
    """(lo, hi) arrays from one (lo, hi) pair per variable, ``None`` unbounded."""
    if bounds is None:
        return np.zeros(nx), np.full(nx, np.inf)
    try:
        bnd = np.array(bounds, dtype=float)        # one pass; None reads as NaN
    except (TypeError, ValueError):
        raise DimensionError("bounds must be one (lo, hi) pair of numbers per variable") from None
    if bnd.shape != (nx, 2):
        raise DimensionError("one (lo, hi) pair per variable required")
    missing = np.isnan(bnd)
    if missing.any():
        for i, k in zip(*np.nonzero(missing)):
            if bounds[i][k] is not None:
                raise DimensionError(f"bound {k} of variable {i} is NaN")
        bnd[missing] = np.broadcast_to([-np.inf, np.inf], bnd.shape)[missing]
    lo, hi = bnd[:, 0], bnd[:, 1]
    if np.any(lo > hi):
        raise DimensionError("variable bounds require lo <= hi")
    return lo, hi


def solve_lp(problem: LpProblem, max_iter: Optional[int] = None) -> LpResult:
    """Solve an LP, returning an optimal basic solution when one exists.

    A problem with no inequality rows, zero cost and every bound finite is a
    box-feasibility question and goes to the phase-1 kernel; every other
    problem goes through both phases of the general form.
    """
    c = np.atleast_1d(np.asarray(problem.c, dtype=float))
    nx = c.size
    if problem.sense not in ("min", "max"):
        raise DimensionError(f"sense must be 'min' or 'max', got {problem.sense!r}")
    sign = 1.0 if problem.sense == "min" else -1.0

    a_ub = np.zeros((0, nx)) if problem.a_ub is None else np.atleast_2d(
        np.asarray(problem.a_ub, dtype=float))
    b_ub = np.zeros(0) if problem.b_ub is None else np.atleast_1d(
        np.asarray(problem.b_ub, dtype=float))
    a_eq = np.zeros((0, nx)) if problem.a_eq is None else np.atleast_2d(
        np.asarray(problem.a_eq, dtype=float))
    b_eq = np.zeros(0) if problem.b_eq is None else np.atleast_1d(
        np.asarray(problem.b_eq, dtype=float))
    if a_ub.shape != (b_ub.size, nx) or a_eq.shape != (b_eq.size, nx):
        raise DimensionError("constraint matrix shapes do not match c/b")
    lo, hi = _parse_bounds(problem.bounds, nx)

    if not b_ub.size and not c.any() and np.isfinite(lo).all() and np.isfinite(hi).all():
        if max_iter is None:
            max_iter = 200 + 50 * (b_eq.size + nx)
        res = _box_feasibility(a_eq, b_eq, lo, hi, max_iter)
    else:
        res = _two_phase(sign * c, a_ub, b_ub, a_eq, b_eq, lo, hi, max_iter)
    if res.x is not None:
        res.objective = float(c @ res.x)
    return res
