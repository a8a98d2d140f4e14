import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import ladsysid.lp
from ladsysid import DimensionError, LpProblem, solve_lp
from oracles import gauss_toeplitz


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
