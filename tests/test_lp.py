import numpy as np
import pytest

import ladsysid.lp
from ladsysid.lp import solve_lp
from oracles import highs_box_feasible


class TestKnownProblems:
    def test_degenerate_lp_terminates(self):
        # x <= 1, y <= 1 and twice x + y >= 2, by slacks: the one feasible
        # point (1, 1) has every slack at zero, so four constraints meet there
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        res = solve_lp(np.hstack([a, np.diag([1.0, 1.0, -1.0, -1.0])]),
                       np.array([1.0, 1.0, 2.0, 2.0]), np.zeros(6), np.full(6, 5.0))
        assert res.status == "optimal"
        assert np.allclose(res.x, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)


class TestStatuses:
    def test_infeasible(self):
        # x + s1 = -1 and -x + s2 = -1 with s >= 0: x <= -1 and x >= 1
        res = solve_lp(np.array([[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]), np.array([-1.0, -1.0]),
                       np.array([-5.0, 0.0, 0.0]), np.array([5.0, 10.0, 10.0]))
        assert res.status == "infeasible"

    def test_iteration_limit(self):
        a = np.random.default_rng(0).standard_normal((4, 9))
        x0 = np.abs(np.random.default_rng(1).standard_normal(9))
        res = solve_lp(a, a @ x0, np.zeros(9), np.full(9, 10.0), max_iter=1)
        assert res.status == "iteration_limit"


class TestBoxFeasibility:
    """The vertex-certificate shape: is there a w with a w = b in the box?"""

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
    def check_optimal(res, a, b, lo, hi):
        assert res.status == "optimal"
        tol = 1e-9 * max(1.0, float(np.abs(b).max(initial=0.0)))
        assert float(np.abs(a @ res.x - b).max(initial=0.0)) <= tol
        assert (res.x >= lo - tol).all() and (res.x <= hi + tol).all()

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
            self.check_optimal(solve_lp(a, b, lo, hi), a, b, lo, hi)

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
            assert solve_lp(a, b, lo, hi).status == "infeasible"
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
            res = solve_lp(a, b, lo, hi)
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
        res = solve_lp(a, np.array([3.0]), np.full(3, -1.0), np.ones(3))
        self.check_optimal(res, a, np.array([3.0]), np.full(3, -1.0), np.ones(3))
        assert res.iterations == 3
        assert np.array_equal(res.x, np.ones(3))

    def test_iteration_limit(self):
        a = np.ones((1, 3))
        res = solve_lp(a, np.array([3.0]), np.full(3, -1.0), np.ones(3), max_iter=1)
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
            self.check_optimal(solve_lp(a, b, lo, hi), a, b, lo, hi)
            assert len(seen) == 2

    def test_point_failing_the_recheck_twice_is_inaccurate(self, monkeypatch):
        monkeypatch.setattr(ladsysid.lp, "_violation", lambda *args: 1.0)
        a = np.array([[1.0, 2.0, -1.0], [0.5, -1.0, 1.0]])
        res = solve_lp(a, a @ np.array([0.2, -0.3, 0.9]), np.full(3, -1.0), np.ones(3))
        assert res.status == "inaccurate" and res.x is not None
