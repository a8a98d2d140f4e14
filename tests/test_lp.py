import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import ladsysid.lp
from ladsysid import DimensionError, LpProblem, solve_lp
from oracles import gauss_toeplitz, highs_box_feasible


def enumerate_vertices_standard_form(a, b, c):
    """Oracle: optimal objective over all basic feasible solutions of
    min c'x s.t. ax = b, x >= 0, by enumerating basis choices."""
    q, n = a.shape
    best = np.inf
    feasible = False
    for cols in itertools.combinations(range(n), q):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        xb = np.linalg.solve(sub, b)
        if (xb >= -1e-9).all():
            feasible = True
            x = np.zeros(n)
            x[list(cols)] = xb
            best = min(best, float(c @ x))
    return feasible, best


class TestKnownProblems:
    @pytest.mark.parametrize("cval", [3.5, -2.0, 0.0, 1e-3])
    def test_absolute_value_epigraph(self, cval):
        # minimize t subject to t >= c, t >= -c
        res = solve_lp(LpProblem(c=[1.0],
                                 a_ub=[[-1.0], [-1.0]],
                                 b_ub=[-cval, cval],
                                 bounds=[(None, None)]))
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(abs(cval), abs=1e-12)

    def test_one_by_one_lad_encoding(self):
        # min u + s subject to h*x + u - s = y
        h, y = 2.5, 7.0
        res = solve_lp(LpProblem(
            c=[0.0, 1.0, 1.0],
            a_eq=[[h, 1.0, -1.0]],
            b_eq=[y],
            bounds=[(None, None), (0, None), (0, None)],
        ))
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(y / h, rel=1e-12)
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_box_constrained(self):
        res = solve_lp(LpProblem(c=[1.0, -2.0, 3.0],
                                 bounds=[(-1, 4), (0, 5), (-2, 2)]))
        assert res.status == "optimal"
        assert np.allclose(res.x, [-1.0, 5.0, -2.0])

    def test_maximize_sense(self):
        res = solve_lp(LpProblem(c=[1.0, 1.0],
                                 a_ub=[[1.0, 2.0], [3.0, 1.0]],
                                 b_ub=[4.0, 6.0],
                                 sense="max"))
        assert res.status == "optimal"
        # vertex of x + 2y = 4, 3x + y = 6: (8/5, 6/5)
        assert res.objective == pytest.approx(14.0 / 5.0, rel=1e-10)

    def test_degenerate_lp_terminates(self):
        # several constraints meet at the optimum
        res = solve_lp(LpProblem(
            c=[-1.0, -1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            b_ub=[1.0, 1.0, 2.0, 2.0],
        ))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0, abs=1e-10)


class TestStatuses:
    def test_infeasible(self):
        res = solve_lp(LpProblem(c=[1.0], a_ub=[[1.0], [-1.0]],
                                 b_ub=[-1.0, -1.0], bounds=[(None, None)]))
        assert res.status == "infeasible"

    def test_unbounded_with_certifying_ray(self):
        res = solve_lp(LpProblem(c=[-1.0, 0.0],
                                 a_eq=[[0.0, 1.0]], b_eq=[1.0]))
        assert res.status == "unbounded"
        ray = res.ray
        assert ray is not None
        assert ray[0] > 0 and abs(ray[1]) < 1e-12  # feasible improving direction

    def test_iteration_limit(self):
        a = np.random.default_rng(0).standard_normal((4, 9))
        x0 = np.abs(np.random.default_rng(1).standard_normal(9))
        res = solve_lp(LpProblem(c=np.ones(9), a_eq=a, b_eq=a @ x0), max_iter=1)
        assert res.status == "iteration_limit"

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            solve_lp(LpProblem(c=[1.0], a_ub=[[1.0, 2.0]], b_ub=[1.0]))
        with pytest.raises(DimensionError):
            solve_lp(LpProblem(c=[1.0], bounds=[(0, 1), (0, 1)]))
        with pytest.raises(DimensionError):
            solve_lp(LpProblem(c=[1.0], bounds=[(2, 1)]))
        with pytest.raises(DimensionError):
            solve_lp(LpProblem(c=[1.0], sense="minimize"))
        with pytest.raises(DimensionError):
            solve_lp(LpProblem(c=[1.0, 0.0], bounds=[(np.nan, 1.0), (0, 1)]))


class TestVertexEnumerationOracle:
    def test_random_standard_form_matches_enumeration(self):
        rng = np.random.default_rng(42)
        solved = 0
        for _ in range(300):
            q = int(rng.integers(1, 4))
            n = q + int(rng.integers(1, 5))
            if n > 8:
                continue
            a = rng.standard_normal((q, n))
            x0 = np.abs(rng.standard_normal(n))  # keeps the problem feasible
            b = a @ x0
            c = rng.standard_normal(n)
            res = solve_lp(LpProblem(c=c, a_eq=a, b_eq=b))
            feasible, best = enumerate_vertices_standard_form(a, b, c)
            assert feasible
            if res.status == "unbounded":
                ray = res.ray
                assert float(c @ ray) < -1e-10
                assert np.allclose(a @ ray, 0.0, atol=1e-8)
                assert (ray >= -1e-9).all()
                continue
            assert res.status == "optimal"
            solved += 1
            assert res.objective == pytest.approx(best, rel=1e-8, abs=1e-8)
            # basic feasible solution: constraints hold, bounds hold
            assert np.allclose(a @ res.x, b, atol=1e-8)
            assert (res.x >= -1e-9).all()
            # the row multipliers are dual feasible and close the duality gap
            assert (c - a.T @ res.y >= -1e-8).all()
            assert float(b @ res.y) == pytest.approx(res.objective, rel=1e-8, abs=1e-8)
        assert solved > 100

    def test_random_bounded_boxes_match_enumeration(self):
        # with finite boxes no instance is unbounded; enumeration needs the
        # standard-form trick x = lo + x', so use lo = 0 boxes directly
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = int(rng.integers(1, 3))
            n = q + int(rng.integers(1, 4))
            a = rng.standard_normal((q, n))
            x0 = rng.uniform(0, 1, n)
            b = a @ x0
            c = rng.standard_normal(n)
            res = solve_lp(LpProblem(c=c, a_eq=a, b_eq=b, bounds=[(0, 2)] * n))
            assert res.status == "optimal"
            # oracle: slacks for the upper bounds give a standard form
            a_std = np.block([[a, np.zeros((q, n))], [np.eye(n), np.eye(n)]])
            b_std = np.concatenate([b, np.full(n, 2.0)])
            c_std = np.concatenate([c, np.zeros(n)])
            feasible, best = enumerate_vertices_standard_form(a_std, b_std, c_std)
            assert feasible
            assert res.objective == pytest.approx(best, rel=1e-8, abs=1e-8)


class TestFinalFeasibilityCheck:
    """The general-form sign-pattern LPs of an exact certification (n=60,
    m=5, K={3,20,41}, Gaussian input seed 7) take 580-720 pivots; the basis
    inverse kept by row reduction drifts so far over them that each one used
    to end "optimal" at a point violating a row by 1e-3 to 2e-2."""

    @staticmethod
    def pattern_lps():
        A = gauss_toeplitz(60, 5, seed=7).entries
        K = [3, 20, 41]
        comp = np.setdiff1d(np.arange(60), K)
        hk, hc = A[K], A[comp]
        nc, m = comp.size, 5
        a_ub = np.zeros((2 * nc + 1, m + nc))
        a_ub[:nc, :m] = hc
        a_ub[:nc, m:] = -np.eye(nc)
        a_ub[nc:2 * nc, :m] = -hc
        a_ub[nc:2 * nc, m:] = -np.eye(nc)
        a_ub[2 * nc, m:] = 1.0
        b_ub = np.zeros(2 * nc + 1)
        b_ub[2 * nc] = 1.0
        bounds = [(None, None)] * m + [(0, None)] * nc
        for tail in itertools.product((1.0, -1.0), repeat=len(K) - 1):
            sigma = np.array((1.0,) + tail)
            c = np.concatenate([sigma @ hk, np.zeros(nc)])
            yield LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, bounds=bounds, sense="max")

    def test_pattern_lps_feasible_and_match_highs(self):
        for prob in self.pattern_lps():
            res = solve_lp(prob)
            assert res.status == "optimal"
            scale = max(1.0, float(np.abs(prob.b_ub).max()))
            assert float((prob.a_ub @ res.x - prob.b_ub).max()) <= 1e-9 * scale
            assert float(-res.x[5:].min()) <= 1e-9 * scale
            highs = linprog(-prob.c, A_ub=prob.a_ub, b_ub=prob.b_ub,
                            bounds=prob.bounds, method="highs")
            assert highs.status == 0
            assert res.objective == pytest.approx(-highs.fun, rel=1e-9)

    def test_drift_that_survives_a_refactorization_is_not_optimal(self, monkeypatch):
        monkeypatch.setattr(ladsysid.lp._BoundedSimplex, "refactor", lambda self: None)
        statuses = {solve_lp(prob).status for prob in self.pattern_lps()}
        assert statuses == {"inaccurate"}


class TestBoxFeasibility:
    """Zero cost, equality rows only, finite bounds: solve_lp's phase-1 kernel."""

    KINDS = ("gaussian", "pm1", "small_int")

    @pytest.fixture
    def routes(self, monkeypatch):
        """Which path each solve_lp call took, in order."""
        taken = []
        for name, label in (("_box_feasibility", "box"), ("_two_phase", "general")):
            inner = getattr(ladsysid.lp, name)

            def recorded(*args, _inner=inner, _label=label):
                taken.append(_label)
                return _inner(*args)
            monkeypatch.setattr(ladsysid.lp, name, recorded)
        return taken

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
        return solve_lp(LpProblem(c=np.zeros(a.shape[1]), a_eq=a, b_eq=b,
                                  bounds=np.column_stack([lo, hi])), max_iter=max_iter)

    @staticmethod
    def check_optimal(res, a, b, lo, hi):
        assert res.status == "optimal"
        tol = 1e-9 * max(1.0, float(np.abs(b).max(initial=0.0)))
        assert float(np.abs(a @ res.x - b).max(initial=0.0)) <= tol
        assert (res.x >= lo - tol).all() and (res.x <= hi + tol).all()
        assert res.objective == 0.0
        assert np.array_equal(res.y, np.zeros(a.shape[0]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_feasible_by_construction(self, kind, routes):
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
        assert routes == ["box"] * 120

    @pytest.mark.parametrize("kind", KINDS)
    def test_infeasible_outside_zonotope(self, kind, routes):
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
        assert routes == ["box"] * 80

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

    def test_bound_flips_alone(self, routes):
        # from w = lo = -1 each variable moves to its upper bound without any
        # basis change: three iterations, all flips, the artificial stays basic
        a = np.ones((1, 3))
        res = self.solve(a, np.array([3.0]), np.full(3, -1.0), np.ones(3))
        self.check_optimal(res, a, np.array([3.0]), np.full(3, -1.0), np.ones(3))
        assert res.iterations == 3
        assert np.array_equal(res.x, np.ones(3))
        assert routes == ["box"]

    def test_zero_rows(self, routes):
        lo, hi = np.array([0.0, -2.0, 5.0]), np.array([1.0, -1.0, 5.0])
        res = solve_lp(LpProblem(c=np.zeros(3), bounds=list(zip(lo, hi))))
        assert res.status == "optimal"
        assert np.array_equal(res.x, lo) and res.iterations == 0
        assert res.y.shape == (0,)
        assert routes == ["box"]

    def test_iteration_limit(self, routes):
        a = np.ones((1, 3))
        res = self.solve(a, np.array([3.0]), np.full(3, -1.0), np.ones(3), max_iter=1)
        assert res.status == "iteration_limit"
        assert res.iterations == 1 and res.x is None
        assert routes == ["box"]

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

    def test_routing_rule(self, routes):
        a, b = np.array([[1.0, 2.0]]), np.array([1.0])
        solve_lp(LpProblem(c=[0.0, 0.0], a_eq=a, b_eq=b, bounds=[(-1, 1), (-1, 1)]))
        solve_lp(LpProblem(c=[0.0, 0.0], a_eq=a, b_eq=b, bounds=[(-1, 1), (-1, 1)],
                           sense="max"))
        assert routes == ["box", "box"]
        routes.clear()
        solve_lp(LpProblem(c=[1.0, 0.0], a_eq=a, b_eq=b, bounds=[(-1, 1), (-1, 1)]))
        solve_lp(LpProblem(c=[0.0, 0.0], a_eq=a, b_eq=b, bounds=[(-1, 1), (-1, None)]))
        solve_lp(LpProblem(c=[0.0, 0.0], a_eq=a, b_eq=b))     # default bounds (0, None)
        solve_lp(LpProblem(c=[0.0, 0.0], a_ub=a, b_ub=b, bounds=[(-1, 1), (-1, 1)]))
        assert routes == ["general"] * 4
