"""``solver.solve_lp``, the vertex check's fallback: is there a w with
|w| <= 1 and At w = target?  A general box lo <= w <= hi is posed on the
unit box through w = c + d w', c and d the box's centre and half-widths."""

import numpy as np
import pytest

from ladsysid.solver import solve_lp
from oracles import highs_box_feasible


def in_unit_box(a, b, lo, hi):
    """(a diag(d), b - a c, c, d) for the box lo <= w <= hi."""
    c, d = (lo + hi) / 2.0, (hi - lo) / 2.0
    return a * d, b - a @ c, c, d


def box_check(a, b, lo, hi):
    """``solve_lp`` on the box lo <= w <= hi; the point is mapped back."""
    At, target, c, d = in_unit_box(a, b, lo, hi)
    res = solve_lp(At, target)
    return res, None if res.w is None else c + d * res.w


def check_feasible(res, w, a, b, lo, hi):
    # the acceptance test's bounds, on the unit box: |w'| <= 1 + 1e-9 and
    # every row within 1e-8 of the largest target entry
    At, target, c, d = in_unit_box(a, b, lo, hi)
    assert res and res.iterations >= 0
    assert np.abs(res.w).max(initial=0.0) <= 1.0 + 1e-9
    assert float(np.abs(At @ res.w - target).max()) <= 1e-8 * (float(np.abs(target).max()) or 1.0)
    assert float(np.abs(a @ w - b).max()) <= 1e-8 * max(1.0, float(np.abs(b - a @ c).max()))


class TestKnownProblems:
    def test_degenerate_lp_terminates(self):
        # x <= 1, y <= 1 and twice x + y >= 2, by slacks: the one feasible
        # point (1, 1) has every slack at zero, so four constraints meet there
        a = np.hstack([np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]]),
                       np.diag([1.0, 1.0, -1.0, -1.0])])
        b, lo, hi = np.array([1.0, 1.0, 2.0, 2.0]), np.zeros(6), np.full(6, 5.0)
        res, w = box_check(a, b, lo, hi)
        check_feasible(res, w, a, b, lo, hi)
        assert np.allclose(w, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-8)


class TestStatuses:
    def test_infeasible(self):
        # x + s1 = -1 and -x + s2 = -1 with s >= 0: x <= -1 and x >= 1
        res, w = box_check(np.array([[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]), np.array([-1.0, -1.0]),
                           np.array([-5.0, 0.0, 0.0]), np.array([5.0, 10.0, 10.0]))
        assert not res and w is None


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
            check_feasible(*box_check(a, b, lo, hi), a, b, lo, hi)

    @pytest.mark.parametrize("kind", KINDS)
    def test_infeasible_outside_zonotope(self, kind):
        rng = np.random.default_rng(["gaussian", "pm1", "small_int"].index(kind) + 200)
        done = 0
        while done < 80:
            a, _, _ = self.random_problem(rng, kind)
            z = rng.standard_normal(a.shape[0])
            if np.abs(z @ a).sum() < 1e-3:
                continue           # z'a w is flat over the box: nothing to scale
            # z'b exceeds max z'a w over the box, so b is outside {a w : |w| <= 1}
            b = rng.uniform(1.05, 3.0) * (a @ np.sign(z @ a))
            assert not highs_box_feasible(a, b, (-1.0, 1.0))
            assert not solve_lp(a, b)
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
            res, w = box_check(a, b, lo, hi)
            feasible = highs_box_feasible(a, b, np.column_stack([lo, hi]))
            verdicts.append(feasible)
            if feasible:
                check_feasible(res, w, a, b, lo, hi)
            else:
                assert not res
        assert 10 <= sum(verdicts) <= len(verdicts) - 10

    def test_bound_flips_alone(self):
        # one row, so no fit runs (m = 1 has a closed form): the one point
        # with sum w = 3 in the box is w = 1
        a = np.ones((1, 3))
        res = solve_lp(a, np.array([3.0]))
        check_feasible(res, res.w, a, np.array([3.0]), np.full(3, -1.0), np.ones(3))
        assert res.iterations == 0
        assert np.array_equal(res.w, np.ones(3))
