from dataclasses import fields

import mpmath
import numpy as np
import pytest

import ladsysid.threshold as threshold_mod
from ladsysid import (InputDist, ThresholdSearchError, bernoulli_row_bounds,
                      entropy, log_normal_sf, normal_cdf, normal_sf,
                      sample_input, strong_threshold, threshold_inequality)

mpmath.mp.dps = 40

# frozen from the pre-build dense brute-force grid scan over (beta, mu, delta)
BETA_STAR_ORACLE = {1: 0.168393, 2: 0.026029}


def grid_threshold_reference(m, beta_tol=1e-6, mu_points=200, delta_points=99,
                             coarse_points=200):
    """strong_threshold as first written: every trial beta minimizes the
    inequality over the full (mu, delta) grid."""
    mu_grid = np.logspace(-2, 2, mu_points)
    dl_grid = np.linspace(0.01, 0.99, delta_points)
    pos = threshold_mod._phi_bracket(m, mu_grid)[:, None]
    tail = threshold_mod._tail_bracket(mu_grid[:, None], dl_grid[None, :])
    coef = 1.0 / (2 * m - 1)
    beta_max = coef * (1.0 - 1e-9)

    def min_lhs(beta):
        vals = entropy(beta) + m * beta * pos + (coef - beta) * tail
        return float(vals.min()), int(np.argmin(vals))

    coarse = np.geomspace(1e-7, beta_max, coarse_points)
    neg = np.array([min_lhs(b)[0] < 0 for b in coarse])
    last = int(np.nonzero(neg)[0].max())
    lo = coarse[last]
    hi = coarse[last + 1] if last + 1 < coarse_points else beta_max
    while min_lhs(hi)[0] < 0 and hi < beta_max:
        lo = hi
        hi = min(2 * hi, beta_max)
    if min_lhs(hi)[0] < 0:
        lo = hi
    while hi - lo > beta_tol:
        mid = 0.5 * (lo + hi)
        if min_lhs(mid)[0] < 0:
            lo = mid
        else:
            hi = mid
    value, flat = min_lhs(lo)
    i_mu, i_dl = np.unravel_index(flat, (mu_points, delta_points))
    return float(lo), float(mu_grid[i_mu]), float(dl_grid[i_dl]), value


def min_lhs_over_grid(beta, m):
    mu = np.logspace(-2, 2, 200)
    dl = np.linspace(0.01, 0.99, 99)
    return float(threshold_inequality(beta, m, mu[:, None], dl[None, :]).min())


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_tail_limits(self):
        assert normal_cdf(-40.0) < 1e-300
        assert abs(normal_cdf(40.0) - 1.0) <= 1e-15

    def test_reference_point(self):
        assert normal_cdf(1.0) == pytest.approx(0.841344746068543, abs=1e-14)

    def test_against_high_precision_oracle(self):
        for t in np.linspace(-8.0, 8.0, 81):
            assert abs(normal_cdf(t) - float(mpmath.ncdf(t))) <= 1e-12

    def test_symmetry(self):
        for t in np.linspace(-6, 6, 25):
            assert abs(normal_cdf(t) + normal_cdf(-t) - 1.0) <= 1e-14

    def test_nondecreasing(self):
        grid = np.linspace(-10, 10, 2001)
        vals = normal_cdf(grid)
        assert (np.diff(vals) >= 0).all()

    def test_sf_complements_cdf(self):
        for t in (-3.0, 0.0, 2.5, 7.0):
            assert normal_sf(t) == pytest.approx(1.0 - normal_cdf(t), abs=1e-15)


class TestLogNormalSf:
    @staticmethod
    def _oracle(t):
        # arbitrary-precision tail via erfc (no cancellation at any t)
        return float(mpmath.log(mpmath.erfc(t / mpmath.sqrt(2)) / 2))

    def test_matching_oracle_to_35(self):
        for t in np.linspace(0.0, 35.0, 71):
            oracle = self._oracle(float(t))
            assert abs(log_normal_sf(float(t)) - oracle) <= 1e-9 * max(1, abs(oracle))

    def test_asymptotic_branch(self):
        for t in (40.0, 60.0, 99.0):
            assert log_normal_sf(t) == pytest.approx(self._oracle(t), rel=1e-10)

    def test_vectorized(self):
        grid = np.array([0.5, 10.0, 50.0])
        out = log_normal_sf(grid)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(log_normal_sf(0.5))


class TestEntropy:
    def test_maximum(self):
        assert entropy(0.5) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_endpoints(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_vanishing_limit(self):
        assert entropy(1e-12) < 3e-11

    def test_symmetry(self):
        for b in (0.1, 0.25, 0.4):
            assert entropy(b) == pytest.approx(entropy(1.0 - b), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy(-0.1)
        with pytest.raises(ValueError):
            entropy(1.1)


class TestThresholdInequality:
    def test_small_beta_is_negative(self):
        assert threshold_inequality(1e-6, 1, 3.0, 0.1) < 0.0

    def test_mu_to_zero_leaves_entropy(self):
        # both brackets vanish with mu, so the expression tends to H(beta)
        for beta, m in ((0.2, 1), (0.05, 3)):
            val = threshold_inequality(beta, m, 1e-9, 0.5)
            assert val == pytest.approx(entropy(beta), abs=1e-6)

    def test_increasing_in_beta_where_tail_positive_coefficient(self):
        m, mu, delta = 1, 3.0, 0.1
        grid = np.linspace(1e-4, 0.45, 300)
        vals = np.array([threshold_inequality(b, m, mu, delta) for b in grid])
        assert (np.diff(vals) > 0).all()

    def test_matches_direct_formula(self):
        beta, m, mu, delta = 0.07, 2, 1.7, 0.3
        a = mu * np.sqrt(m)
        g = mu * (1 - delta)
        direct = (entropy(beta)
                  + m * beta * (np.log(2) + m * mu**2 / 2 + np.log(normal_cdf(a)))
                  + (1.0 / (2 * m - 1) - beta)
                  * (np.log(2) + g**2 / 2 + np.log(1.0 - normal_cdf(g))))
        assert threshold_inequality(beta, m, mu, delta) == pytest.approx(direct, rel=1e-12)

    def test_broadcasts_over_grids(self):
        mu = np.logspace(-1, 1, 7)
        dl = np.linspace(0.1, 0.9, 5)
        out = threshold_inequality(0.1, 1, mu[:, None], dl[None, :])
        assert out.shape == (7, 5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            threshold_inequality(0.0, 1, 1.0, 0.5)
        with pytest.raises(ValueError):
            threshold_inequality(0.5, 0, 1.0, 0.5)
        with pytest.raises(ValueError):
            threshold_inequality(0.5, 1, -1.0, 0.5)
        with pytest.raises(ValueError):
            threshold_inequality(0.5, 1, 1.0, 1.0)

    @pytest.mark.parametrize("m", [2.5, True, np.True_, float("nan")])
    def test_m_must_be_whole(self, m):
        with pytest.raises(ValueError, match="integer"):
            threshold_inequality(0.01, m, 1.0, 0.5)

    def test_integral_m_is_its_integer(self):
        mu, dl = np.logspace(-1, 1, 7)[:, None], np.linspace(0.1, 0.9, 5)
        want = threshold_inequality(0.01, 2, mu, dl).tobytes()
        for m in (2.0, np.int64(2), np.float32(2.0)):
            assert threshold_inequality(0.01, m, mu, dl).tobytes() == want


class TestStrongThreshold:
    def test_frozen_regression_values(self):
        for m, frozen in BETA_STAR_ORACLE.items():
            res = strong_threshold(m)
            assert res.beta_star == pytest.approx(frozen, abs=1e-4)

    def test_dense_scan_oracle_m1(self):
        # independent exhaustive beta scan at 1e-4 resolution, no bisection
        best = 0.0
        for b in np.arange(0.15, 0.20, 1e-4):
            if min_lhs_over_grid(b, 1) < 0:
                best = b
        res = strong_threshold(1)
        assert res.beta_star == pytest.approx(best, abs=2e-4)

    def test_certificate_reevaluates_negative(self):
        for m in (1, 4, 9):
            res = strong_threshold(m)
            assert threshold_inequality(res.beta_star, m, res.mu, res.delta) < 0.0

    def test_positive_and_nonincreasing(self):
        values = [strong_threshold(m).beta_star for m in range(1, 11)]
        assert all(v > 0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_grid_refinement_never_loses_ground(self):
        for m in (1, 4):
            base = strong_threshold(m)
            fine, _, _, _ = grid_threshold_reference(m, mu_points=400, delta_points=198)
            assert fine >= base.beta_star - 2e-6

    def test_bit_identical_to_full_grid_search(self):
        for m in range(1, 51):
            res = strong_threshold(m)
            got = (res.beta_star, res.mu, res.delta, res.lhs_value)
            assert got == grid_threshold_reference(m), m

    def test_result_metadata(self):
        res = strong_threshold(3)
        assert [f.name for f in fields(res)] == ["m", "beta_star", "mu", "delta", "lhs_value"]
        assert res.m == 3
        assert res.lhs_value < 0
        assert 0 < res.beta_star < 1

    def test_m_range(self):
        with pytest.raises(ValueError):
            strong_threshold(0)
        with pytest.raises(ValueError):
            strong_threshold(51)
        for m in (2.5, True, np.bool_(True), float("nan")):
            with pytest.raises(ValueError, match="integer"):
                strong_threshold(m)
        for m in (2.0, np.int64(2), np.float32(2.0)):
            res = strong_threshold(m)
            assert res == strong_threshold(2) and type(res.m) is int

    def test_tail_grid_built_once_for_all_m(self, monkeypatch):
        calls = []
        inner = threshold_mod._tail_bracket

        def counted(mu, delta):
            calls.append(1)
            return inner(mu, delta)
        monkeypatch.setattr(threshold_mod, "_grid_memo", None)
        monkeypatch.setattr(threshold_mod, "_tail_bracket", counted)
        for m in range(1, 51):
            threshold_mod.strong_threshold(m)
        assert len(calls) == 1

    def test_search_failure_reported(self, monkeypatch):
        # force a grid where no (mu, delta) certificate exists
        monkeypatch.setattr(threshold_mod, "_tail_bracket",
                            lambda mu, delta: np.ones(np.broadcast(
                                np.asarray(mu), np.asarray(delta)).shape))
        with pytest.raises(ThresholdSearchError):
            threshold_mod.strong_threshold(2)


class TestBernoulliBounds:
    def test_known_values(self):
        lo, hi = bernoulli_row_bounds(1)
        assert (lo, hi) == (0.5, 1.0)
        lo, hi = bernoulli_row_bounds(4)
        assert (lo, hi) == (0.25, 2.0)

    def test_m1_expectation_is_inside(self):
        lo, hi = bernoulli_row_bounds(1)
        assert lo <= 1.0 <= hi   # E|z h| = 1 for z = +/-1

    def test_monte_carlo_rows_inside_bounds(self):
        rng = np.random.default_rng(17)
        for m in range(1, 7):
            lo, hi = bernoulli_row_bounds(m)
            for _ in range(20):
                z = rng.standard_normal(m)
                z /= np.linalg.norm(z)
                h = sample_input(InputDist.bernoulli_pm1(), 4000, m,
                                 seed=int(rng.integers(2**32)))
                rows = np.lib.stride_tricks.sliding_window_view(h, m)
                est = np.abs(rows @ z).mean()
                assert lo - 0.02 <= est <= hi + 0.02

    def test_domain(self):
        with pytest.raises(ValueError):
            bernoulli_row_bounds(0)

    @pytest.mark.parametrize("m", [2.5, True, np.True_, float("nan")])
    def test_m_must_be_whole(self, m):
        with pytest.raises(ValueError, match="integer"):
            bernoulli_row_bounds(m)

    def test_integral_m_is_its_integer(self):
        want = [np.float64(v).tobytes() for v in bernoulli_row_bounds(2)]
        for m in (2.0, np.int64(2), np.float32(2.0)):
            assert [np.float64(v).tobytes() for v in bernoulli_row_bounds(m)] == want
