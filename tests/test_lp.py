import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import ladsysid.lp
from ladsysid.lp import solve_lp
from oracles import gauss_toeplitz, highs_box_feasible


def enumerate_box_vertices(a, b, c, lo, hi):
    """Oracle: optimal objective over all basic feasible solutions of
    min c'x s.t. ax = b, lo <= x <= hi (inf when there is none): every choice
    of q basic columns, with each other column at either of its bounds."""
    q, n = a.shape
    best = np.inf
    for cols in itertools.combinations(range(n), q):
        cols = list(cols)
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        rest = np.setdiff1d(np.arange(n), cols)
        at = np.array(list(itertools.product(*zip(lo[rest], hi[rest]))), dtype=float)
        xb = np.linalg.solve(sub, b[:, None] - a[:, rest] @ at.T)
        ok = ((xb >= lo[cols, None] - 1e-9) & (xb <= hi[cols, None] + 1e-9)).all(axis=0)
        if ok.any():
            best = min(best, float((c[cols] @ xb[:, ok] + c[rest] @ at[ok].T).min()))
    return best


def box(*pairs):
    return np.array(pairs, dtype=float)


def solve(c, a_eq, b_eq, bounds, max_iter=None):
    """``solve_lp`` on float arrays, the bounds given as (lo, hi) rows."""
    bounds = np.asarray(bounds, dtype=float)
    return solve_lp(np.asarray(c, dtype=float), np.asarray(a_eq, dtype=float),
                    np.asarray(b_eq, dtype=float), bounds[:, 0], bounds[:, 1], max_iter)


def objective(c, res):
    return float(np.asarray(c, dtype=float) @ res.x)


class TestKnownProblems:
    @pytest.mark.parametrize("cval", [3.5, -2.0, 0.0, 1e-3])
    def test_absolute_value_epigraph(self, cval):
        # minimize t subject to t - s1 = c, t - s2 = -c, s >= 0
        res = solve(c=[1.0, 0.0, 0.0],
                    a_eq=[[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]],
                    b_eq=[cval, -cval],
                    bounds=box((-10, 10), (0, 20), (0, 20)))
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(abs(cval), abs=1e-12)

    def test_one_by_one_lad_encoding(self):
        # min u + s subject to h*x + u - s = y
        h, y = 2.5, 7.0
        res = solve(
            c=[0.0, 1.0, 1.0],
            a_eq=[[h, 1.0, -1.0]],
            b_eq=[y],
            bounds=box((-100, 100), (0, 100), (0, 100)),
        )
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(y / h, rel=1e-12)
        assert objective([0.0, 1.0, 1.0], res) == pytest.approx(0.0, abs=1e-12)

    def test_maximize_sense(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6, by minimizing -(x + y) with slacks
        res = solve(c=[-1.0, -1.0, 0.0, 0.0],
                    a_eq=[[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]],
                    b_eq=[4.0, 6.0],
                    bounds=box((0, 10), (0, 10), (0, 20), (0, 20)))
        assert res.status == "optimal"
        # vertex of x + 2y = 4, 3x + y = 6: (8/5, 6/5)
        assert -objective([-1.0, -1.0, 0.0, 0.0], res) == pytest.approx(14.0 / 5.0,
                                                                         rel=1e-10)

    def test_degenerate_lp_terminates(self):
        # several constraints meet at the optimum
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        c = [-1.0, -1.0, 0.0, 0.0, 0.0, 0.0]
        res = solve(
            c=c,
            a_eq=np.hstack([a, np.eye(4)]),
            b_eq=[1.0, 1.0, 2.0, 2.0],
            bounds=np.tile([0.0, 5.0], (6, 1)),
        )
        assert res.status == "optimal"
        assert objective(c, res) == pytest.approx(-2.0, abs=1e-10)


class TestStatuses:
    def test_infeasible(self):
        # x + s1 = -1 and -x + s2 = -1 with s >= 0: x <= -1 and x >= 1
        res = solve(c=[1.0, 0.0, 0.0], a_eq=[[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]],
                    b_eq=[-1.0, -1.0], bounds=box((-5, 5), (0, 10), (0, 10)))
        assert res.status == "infeasible"

    def test_iteration_limit(self):
        a = np.random.default_rng(0).standard_normal((4, 9))
        x0 = np.abs(np.random.default_rng(1).standard_normal(9))
        res = solve(c=np.ones(9), a_eq=a, b_eq=a @ x0,
                    bounds=np.tile([0.0, 10.0], (9, 1)), max_iter=1)
        assert res.status == "iteration_limit"


class TestVertexEnumerationOracle:
    @staticmethod
    def check_box_duality(res, a, b, c, lo, hi):
        """c'x = b'y + sum_j min(d_j lo_j, d_j hi_j) with d = c - a'y: the
        multipliers y are optimal for the dual of the box LP."""
        d = c - a.T @ res.y
        dual = float(b @ res.y + np.minimum(d * lo, d * hi).sum())
        assert objective(c, res) == pytest.approx(dual, rel=1e-8, abs=1e-8)

    def test_random_standard_form_matches_enumeration(self):
        # lo = 0 boxes whose upper bounds sit above a known feasible point
        rng = np.random.default_rng(42)
        for _ in range(300):
            q = int(rng.integers(1, 4))
            n = q + int(rng.integers(1, 5))
            a = rng.standard_normal((q, n))
            x0 = np.abs(rng.standard_normal(n))  # keeps the problem feasible
            b = a @ x0
            c = rng.standard_normal(n)
            lo, hi = np.zeros(n), x0 + rng.uniform(0.1, 3.0, n)
            res = solve_lp(c, a, b, lo, hi)
            best = enumerate_box_vertices(a, b, c, lo, hi)
            assert np.isfinite(best)
            assert res.status == "optimal"
            assert objective(c, res) == pytest.approx(best, rel=1e-8, abs=1e-8)
            # basic feasible solution: constraints hold, bounds hold
            assert np.allclose(a @ res.x, b, atol=1e-8)
            assert (res.x >= lo - 1e-9).all() and (res.x <= hi + 1e-9).all()
            self.check_box_duality(res, a, b, c, lo, hi)

    def test_random_bounded_boxes_match_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = int(rng.integers(1, 3))
            n = q + int(rng.integers(1, 4))
            a = rng.standard_normal((q, n))
            x0 = rng.uniform(0, 1, n)
            b = a @ x0
            c = rng.standard_normal(n)
            lo, hi = np.zeros(n), np.full(n, 2.0)
            res = solve(c=c, a_eq=a, b_eq=b, bounds=[(0, 2)] * n)
            assert res.status == "optimal"
            assert objective(c, res) == pytest.approx(enumerate_box_vertices(a, b, c, lo, hi),
                                                      rel=1e-8, abs=1e-8)
            self.check_box_duality(res, a, b, c, lo, hi)


class TestFinalFeasibilityCheck:
    """The sign-pattern LPs of an exact certification (n=60, m=5, K={3,20,41},
    Gaussian input seed 7), in the form ``cert._pattern_max`` builds them:
    min -t s.t. H_Kbar' v - t H_K' sigma / ||H_K' sigma||_inf = 0, |v| <= 1,
    0 <= t <= 2R.  Their optimal exits come from phase 2."""

    @staticmethod
    def pattern_lps():
        A = gauss_toeplitz(60, 5, seed=7).entries
        K = [3, 20, 41]
        comp = np.setdiff1d(np.arange(60), K)
        hk, hc = A[K], A[comp]
        nc = comp.size
        reach = np.abs(hc).sum(axis=0).max()
        c = np.zeros(nc + 1)
        c[-1] = -1.0
        for tail in itertools.product((1.0, -1.0), repeat=len(K) - 1):
            g = np.array((1.0,) + tail) @ hk
            lo, hi = np.full(nc + 1, -1.0), np.ones(nc + 1)
            lo[-1], hi[-1] = 0.0, 2.0 * reach
            yield (c, np.column_stack([hc.T, -g / np.abs(g).max()]), np.zeros(5), lo, hi)

    @staticmethod
    def check_against_highs(prob, res):
        c, a, b, lo, hi = prob
        assert res.status == "optimal"
        assert float(np.abs(a @ res.x).max()) <= 1e-9
        assert (res.x >= lo - 1e-9).all() and (res.x <= hi + 1e-9).all()
        highs = linprog(c, A_eq=a, b_eq=b, bounds=np.column_stack([lo, hi]),
                        method="highs")
        assert highs.status == 0
        assert objective(c, res) == pytest.approx(highs.fun, rel=1e-9)
        # the multipliers price every column: d = c - a'y is >= 0 at lo, <= 0 at hi
        d = c - a.T @ res.y
        assert float(np.minimum(d * lo, d * hi).sum()) == pytest.approx(objective(c, res),
                                                                         rel=1e-9)

    def test_pattern_lps_feasible_and_match_highs(self):
        for prob in self.pattern_lps():
            self.check_against_highs(prob, solve_lp(*prob))

    def test_failed_recheck_at_a_phase_two_exit_rebuilds(self, monkeypatch):
        check = ladsysid.lp._violation
        seen = []

        def first_fails(*args):
            seen.append(check(*args))
            return 1.0 if len(seen) == 1 else seen[-1]
        monkeypatch.setattr(ladsysid.lp, "_violation", first_fails)
        for prob in self.pattern_lps():
            seen.clear()
            self.check_against_highs(prob, solve_lp(*prob))
            assert len(seen) == 2

    def test_drift_that_survives_a_refactorization_is_not_optimal(self, monkeypatch):
        monkeypatch.setattr(ladsysid.lp, "_violation", lambda *args: 1.0)
        results = [solve_lp(*prob) for prob in self.pattern_lps()]
        assert {res.status for res in results} == {"inaccurate"}
        assert all(res.x is not None and res.y is None for res in results)

    def test_rebuilt_prices_that_price_a_column_in_are_not_optimal(self, monkeypatch):
        # the first re-check fails and turns column 2 (nonbasic at 0) into one
        # the rebuilt multipliers price in: the loop's basis inverse belongs to
        # the old columns, as after drift, and the exit must not be optimal
        a = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.5]])
        b, c = np.array([1.0, 0.25]), np.array([-1.0, -2.0, 0.0])
        lo, hi = np.zeros(3), np.ones(3)
        res = solve_lp(c, a.copy(), b, lo, hi, 100)
        assert res.status == "optimal" and res.x[2] == 0.0
        check = ladsysid.lp._violation
        seen = []

        def first_fails(a_, *args):
            seen.append(check(a_, *args))
            if len(seen) > 1:
                return seen[-1]
            a_[:, 2] = (-1.0, 0.0)
            return 1.0
        monkeypatch.setattr(ladsysid.lp, "_violation", first_fails)
        res = solve_lp(c, a.copy(), b, lo, hi, 100)
        assert len(seen) == 2 and seen[1] <= 1e-12
        assert res.status == "inaccurate" and res.y is None


class TestBoxFeasibility:
    """Zero cost: the vertex-certificate shape, answered by phase 1 alone."""

    KINDS = ("gaussian", "pm1", "small_int")

    @staticmethod
    def random_problem(rng, kind):
        q = int(rng.integers(1, 7))
        p = int(rng.integers(1, 61))
        if kind == "gaussian":
            a = rng.standard_normal((q, p))
        elif kind == "pm1":
            a = rng.choice([-1.0, 1.0], size=(q, p))
        else:                      # tie-prone: entries in -2..2, zero columns possible
            a = rng.integers(-2, 3, size=(q, p)).astype(float)
        if rng.random() < 0.5:
            lo, hi = np.full(p, -1.0), np.ones(p)
        else:                      # general boxes, some variables fixed
            lo = rng.integers(-3, 2, size=p).astype(float)
            hi = lo + rng.integers(0, 3, size=p)
        return a, lo, hi

    @staticmethod
    def solve(a, b, lo, hi, max_iter=None):
        return solve_lp(np.zeros(a.shape[1]), a, b, lo, hi, max_iter)

    @staticmethod
    def check_optimal(res, a, b, lo, hi):
        assert res.status == "optimal"
        tol = 1e-9 * max(1.0, float(np.abs(b).max(initial=0.0)))
        assert float(np.abs(a @ res.x - b).max(initial=0.0)) <= tol
        assert (res.x >= lo - tol).all() and (res.x <= hi + tol).all()
        assert objective(np.zeros(a.shape[1]), res) == 0.0
        assert np.array_equal(res.y, np.zeros(a.shape[0]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_feasible_by_construction(self, kind):
        rng = np.random.default_rng(["gaussian", "pm1", "small_int"].index(kind) + 100)
        for i in range(120):
            a, lo, hi = self.random_problem(rng, kind)
            if i % 3 == 0:         # w0 inside the box
                w0 = rng.uniform(lo, hi)
            elif i % 3 == 1:       # w0 at a vertex of the box
                w0 = np.where(rng.random(lo.size) < 0.5, lo, hi)
            else:                  # w0 maximizes z'a w: b on the boundary of a w's range
                w0 = np.where(rng.standard_normal(a.shape[0]) @ a > 0, hi, lo)
            b = a @ w0
            assert highs_box_feasible(a, b, np.column_stack([lo, hi]))
            self.check_optimal(self.solve(a, b, lo, hi), a, b, lo, hi)

    @pytest.mark.parametrize("kind", KINDS)
    def test_infeasible_outside_zonotope(self, kind):
        rng = np.random.default_rng(["gaussian", "pm1", "small_int"].index(kind) + 200)
        done = 0
        while done < 80:
            a, _, _ = self.random_problem(rng, kind)
            p = a.shape[1]
            lo, hi = np.full(p, -1.0), np.ones(p)
            z = rng.standard_normal(a.shape[0])
            if np.abs(z @ a).sum() < 1e-3:
                continue           # z'a w is flat over the box: nothing to scale
            # z'b exceeds max z'a w over the box, so b is outside {a w : |w| <= 1}
            b = rng.uniform(1.05, 3.0) * (a @ np.sign(z @ a))
            assert not highs_box_feasible(a, b, np.column_stack([lo, hi]))
            assert self.solve(a, b, lo, hi).status == "infeasible"
            done += 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_verdict_matches_highs_on_random_right_hand_sides(self, kind):
        rng = np.random.default_rng(["gaussian", "pm1", "small_int"].index(kind) + 300)
        verdicts = []
        for _ in range(150):
            a, lo, hi = self.random_problem(rng, kind)
            b = a @ rng.uniform(lo, hi) + rng.normal(0.0, 2.0, a.shape[0])
            if kind != "gaussian":
                b = np.round(b)    # integer data: feasible problems sit on ties
            res = self.solve(a, b, lo, hi)
            feasible = highs_box_feasible(a, b, np.column_stack([lo, hi]))
            verdicts.append(feasible)
            if feasible:
                self.check_optimal(res, a, b, lo, hi)
            else:
                assert res.status == "infeasible"
        assert 10 <= sum(verdicts) <= len(verdicts) - 10

    def test_bound_flips_alone(self):
        # from w = lo = -1 each variable moves to its upper bound without any
        # basis change: three iterations, all flips, the artificial stays basic
        a = np.ones((1, 3))
        res = self.solve(a, np.array([3.0]), np.full(3, -1.0), np.ones(3))
        self.check_optimal(res, a, np.array([3.0]), np.full(3, -1.0), np.ones(3))
        assert res.iterations == 3
        assert np.array_equal(res.x, np.ones(3))

    def test_iteration_limit(self):
        a = np.ones((1, 3))
        res = self.solve(a, np.array([3.0]), np.full(3, -1.0), np.ones(3), max_iter=1)
        assert res.status == "iteration_limit"
        assert res.iterations == 1 and res.x is None

    def test_failed_recheck_rebuilds_the_basis(self, monkeypatch):
        # the first re-check of each solve reports a violation: the basic values
        # are rebuilt from the basis columns, with artificials still basic or not
        rng = np.random.default_rng(400)
        check = ladsysid.lp._violation
        seen = []

        def first_fails(*args):
            seen.append(check(*args))
            return 1.0 if len(seen) == 1 else seen[-1]
        monkeypatch.setattr(ladsysid.lp, "_violation", first_fails)
        problems = [(np.ones((1, 3)), np.array([3.0]), np.full(3, -1.0), np.ones(3))]
        for kind in self.KINDS:
            for _ in range(20):
                a, lo, hi = self.random_problem(rng, kind)
                problems.append((a, a @ rng.uniform(lo, hi), lo, hi))
        for a, b, lo, hi in problems:
            seen.clear()
            self.check_optimal(self.solve(a, b, lo, hi), a, b, lo, hi)
            assert len(seen) == 2

    def test_point_failing_the_recheck_twice_is_inaccurate(self, monkeypatch):
        monkeypatch.setattr(ladsysid.lp, "_violation", lambda *args: 1.0)
        a = np.array([[1.0, 2.0, -1.0], [0.5, -1.0, 1.0]])
        res = self.solve(a, a @ np.array([0.2, -0.3, 0.9]), np.full(3, -1.0), np.ones(3))
        assert res.status == "inaccurate"
        assert res.x is not None and res.y is None


class TestPhaseTwo:
    """Nonzero cost on the same random boxes: phase 2 from the phase-1 basis."""

    @pytest.mark.parametrize("kind", TestBoxFeasibility.KINDS)
    def test_optimum_matches_highs_on_random_costs(self, kind):
        rng = np.random.default_rng(["gaussian", "pm1", "small_int"].index(kind) + 500)
        for _ in range(100):
            a, lo, hi = TestBoxFeasibility.random_problem(rng, kind)
            b = a @ rng.uniform(lo, hi)
            c = rng.standard_normal(a.shape[1])
            if kind != "gaussian":
                c = np.round(c)    # integer costs: ties among columns and optima
            bounds = np.column_stack([lo, hi])
            res = solve_lp(c, a, b, lo, hi)
            highs = linprog(c, A_eq=a, b_eq=b, bounds=bounds, method="highs")
            assert highs.status == 0 and res.status == "optimal"
            tol = 1e-9 * max(1.0, float(np.abs(b).max()))
            assert float(np.abs(a @ res.x - b).max()) <= tol
            assert (res.x >= lo - tol).all() and (res.x <= hi + tol).all()
            assert objective(c, res) == pytest.approx(highs.fun, rel=1e-9, abs=1e-9)
            TestVertexEnumerationOracle.check_box_duality(res, a, b, c, lo, hi)

    def test_tolerance_scales_with_the_cost(self):
        # the same LP with c scaled by 1e-12 and 1e12 ends at the same vertex
        a = np.array([[1.0, 2.0, -1.0, 0.5], [0.5, -1.0, 1.0, 2.0]])
        b = a @ np.array([0.2, -0.3, 0.9, 0.1])
        c = np.array([1.0, -0.5, 0.25, -2.0])
        bounds = np.tile([-1.0, 1.0], (4, 1))
        ref = solve(c=c, a_eq=a, b_eq=b, bounds=bounds)
        for k in (1e-12, 1e12):
            res = solve(c=k * c, a_eq=a, b_eq=b, bounds=bounds)
            assert res.status == "optimal"
            assert np.allclose(res.x, ref.x, atol=1e-12)
            assert np.allclose(res.y, k * ref.y, rtol=1e-9)
