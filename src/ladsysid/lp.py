"""Dense linear programming by the bounded-variable primal simplex method.

Two-phase: phase 1 minimizes the sum of artificial variables to find a basic
feasible solution, phase 2 optimizes the real objective.  Variables may carry
arbitrary finite or infinite bounds; nonbasic variables rest at a finite bound
(or at zero when free).  Pivoting is Dantzig's largest-violation rule, with
Bland's smallest-index rule engaged while steps are degenerate so the method
cannot cycle.  Problem sizes here are small (at most a few thousand variables),
so the basis inverse is kept explicitly and refreshed by row reduction.  That
inverse drifts over hundreds of pivots, so an optimal exit is re-checked
against the original rows and bounds; on a violation the inverse is rebuilt
from the basis columns and phase 2 resumes, and a point still infeasible
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

    ``bounds`` lists one (lo, hi) pair per variable, ``None`` meaning
    unbounded on that side; the default is (0, None) for every variable.
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


def solve_lp(problem: LpProblem, max_iter: Optional[int] = None) -> LpResult:
    """Solve an LP, returning an optimal basic solution when one exists."""
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

    bounds = problem.bounds if problem.bounds is not None else [(0, None)] * nx
    if len(bounds) != nx:
        raise DimensionError("one (lo, hi) pair per variable required")
    lo = np.array([-np.inf if b[0] is None else float(b[0]) for b in bounds])
    hi = np.array([np.inf if b[1] is None else float(b[1]) for b in bounds])
    if np.any(lo > hi):
        raise DimensionError("variable bounds require lo <= hi")

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
    c_full = np.concatenate([sign * c, np.zeros(n_ub)])

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
        return LpResult(status=status, x=x,
                        objective=float(c @ x), iterations=sx.iterations)
    return LpResult(status="optimal", x=x, objective=float(c @ x),
                    iterations=sx.iterations, y=phase2_cost[sx.basis] @ sx.binv)
