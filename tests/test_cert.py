import itertools
import math

import numpy as np
import pytest

import ladsysid.cert
from ladsysid import (DimensionError, InputDist, LadSysIdError, Magnitude,
                      SpecError, SupportSizeError,
                      balance_gap, build_regressor, certify_support_exact,
                      certify_support_mc, concentration_diagnostic,
                      empirical_recovery_rate, expected_gain, sample_input)
from ladsysid.matgen import rng_from_seed
from ladsysid.solver import Estimate, _as_matrix
from oracles import (direction_grid_min_gap, gain_quadrature, gauss_toeplitz,
                     highs_pattern_best, mc_batched_reference, pattern_max_reference,
                     recovery_probe, vertex_max_reference, witness_attack_defeats_lad)

ONES_COLUMN = np.array([[1.0], [1.0], [1.0]])
SPIKE_COLUMN = np.array([[1.0], [0.0], [0.0]])


def mc_reference(H, K, trials, seed):
    """The falsifier's loop as first written: batches of 2e6 score entries,
    each a fresh |Z H'| with boolean-mask column sums.  Returns the worst
    scaled gap and its direction."""
    A = _as_matrix(H)
    n, m = A.shape
    on_k = np.zeros(n, dtype=bool)
    on_k[list(K)] = True
    rng = rng_from_seed(seed)
    worst = np.inf
    worst_z = None
    chunk = max(1, 2_000_000 // max(n, 1))
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        Z = rng.standard_normal((b, m))
        norms = np.linalg.norm(Z, axis=1)
        norms[norms == 0] = 1.0
        Z /= norms[:, None]
        V = np.abs(Z @ A.T)            # b x n
        gaps = V.sum(axis=1) - 2.0 * V[:, on_k].sum(axis=1)
        denom = V[:, on_k].sum(axis=1)
        scaled = np.where(denom > 1e-300, gaps / np.maximum(denom, 1e-300), gaps)
        i = int(np.argmin(scaled))
        if scaled[i] < worst:
            worst = float(scaled[i])
            worst_z = Z[i].copy()
        done += b
    return worst, worst_z


class TestBalanceGap:
    def test_single_row_support(self):
        assert balance_gap(ONES_COLUMN, [0], [1.0]) == pytest.approx(1.0)

    def test_majority_support_is_negative(self):
        assert balance_gap(ONES_COLUMN, [0, 1], [1.0]) == pytest.approx(-1.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        H = gauss_toeplitz(15, 3, seed=1)
        z = rng.standard_normal(3)
        base = balance_gap(H, [1, 4, 7], z)
        for c in (-3.0, 0.25):
            assert balance_gap(H, [1, 4, 7], c * z) == pytest.approx(
                abs(c) * base, rel=1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            balance_gap(ONES_COLUMN, [0], [0.0])

    @pytest.mark.parametrize("z,match", [([0.0, 0.0, 0.0], "nonzero"),
                                         ([1.0, np.nan, 0.5], "finite"),
                                         ([1.0, np.inf, 0.5], "finite"),
                                         ([-np.inf, 0.0, 0.0], "finite")])
    def test_zero_or_non_finite_direction_is_a_dimension_error(self, z, match):
        with pytest.raises(DimensionError, match=match):
            balance_gap(gauss_toeplitz(15, 3, seed=1), [1, 4], z)

    def test_bad_support_rejected(self):
        with pytest.raises(DimensionError):
            balance_gap(ONES_COLUMN, [3], [1.0])

    def test_direction_of_the_wrong_shape_rejected(self):
        with pytest.raises(DimensionError, match="z has shape"):
            balance_gap(ONES_COLUMN, [0], [1.0, 0.0])


class TestExactCertifier:
    def test_uniform_column_single_row_certified(self):
        cert = certify_support_exact(ONES_COLUMN, [0])
        assert cert.verdict == "certified"
        assert cert.worst_gap == pytest.approx(0.5)

    def test_spike_column_falsified_with_witness(self):
        cert = certify_support_exact(SPIKE_COLUMN, [0])
        assert cert.verdict == "falsified"
        assert cert.witness is not None
        assert balance_gap(SPIKE_COLUMN, [0], cert.witness) <= 0.0

    def test_empty_support_certified(self):
        cert = certify_support_exact(gauss_toeplitz(10, 2, seed=2), [])
        assert cert.verdict == "certified"

    def test_majority_support_falsified(self):
        cert = certify_support_exact(ONES_COLUMN, [0, 1])
        assert cert.verdict == "falsified"
        assert balance_gap(ONES_COLUMN, [0, 1], cert.witness) <= 0.0

    def test_cap_exceeded_points_to_mc(self):
        # C(179, 5) = 1.45e9 vertices against 1000 * 2^20: the pattern route,
        # whose 2^20 LPs are over its cap
        H = gauss_toeplitz(200, 6, seed=3)
        with pytest.raises(SupportSizeError, match="certify_support_mc"):
            certify_support_exact(H, list(range(21)))

    def test_large_support_certified_by_vertices(self):
        # |K| = 29 but only C(171, 2) = 14535 vertices: the cap on |K| is
        # the pattern route's alone
        H = gauss_toeplitz(200, 3, seed=0)
        K = list(range(0, 200, 7))
        cert = certify_support_exact(H, K)
        assert (cert.verdict, cert.method, cert.work) == ("certified", "vertices", 14535)
        assert cert.worst_gap == pytest.approx(0.809095, abs=1e-6)
        # no sampled direction beats the exact worst ratio
        mc = certify_support_mc(H, K, trials=10**4, seed=1)
        assert mc.worst_gap >= 1.0 / (1.0 - cert.worst_gap) - 1.0 - 1e-9

    @pytest.mark.parametrize("n,k", [(40, 21), (1200, 1100)])
    def test_large_support_falsified_by_vertices(self, n, k):
        # m = 2: n - k vertices; 2^(k-1) is beyond the float range at k = 1100
        H = gauss_toeplitz(n, 2, seed=0)
        K = list(range(k))
        cert = certify_support_exact(H, K)
        assert (cert.verdict, cert.method, cert.work) == ("falsified", "vertices", n - k)
        assert balance_gap(H, K, cert.witness) <= 0.0

    def test_monotone_in_support(self):
        # subsets of a certified support stay certified
        for seed in range(6):
            H = gauss_toeplitz(12, 2, seed=100 + seed)
            cert = certify_support_exact(H, [0, 5, 9])
            if cert.verdict != "certified":
                continue
            for sub in ([0], [5, 9], [0, 9], []):
                assert certify_support_exact(H, sub).verdict == "certified"

    def test_agrees_with_grid_and_recovery_oracle(self):
        rng = np.random.default_rng(42)
        seen = {"certified": 0, "falsified": 0}
        for i in range(30):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(max(4, m + 1), 13))
            k = int(rng.integers(1, 4))
            H = gauss_toeplitz(n, m, seed=10_000 + i)
            K = sorted(rng.choice(n, size=min(k, n - 1), replace=False).tolist())
            cert = certify_support_exact(H, K)
            min_gap, _ = direction_grid_min_gap(H, K)
            seen[cert.verdict] += 1
            if cert.verdict == "certified":
                assert min_gap > 0.0
                assert recovery_probe(H, K, trials=10, seed=333 + i) == 1.0
            else:
                assert (min_gap <= 1e-7
                        or witness_attack_defeats_lad(H, K, cert.witness, seed=444 + i))
        assert seen["certified"] > 0 and seen["falsified"] > 0


class TestExactMethods:
    def test_pattern_lps_match_highs_optimum(self):
        # an instance the pattern LPs once solved to 0.86074, before an optimal
        # exit was re-checked against its rows
        H = gauss_toeplitz(60, 5, seed=7)
        K = [3, 20, 41]
        cert = certify_support_exact(H, K)
        assert (cert.method, cert.work) == ("patterns", 4)
        assert cert.verdict == "certified"
        assert cert.worst_gap == pytest.approx(1.0 - highs_pattern_best(H, K), abs=1e-9)
        assert cert.worst_gap == pytest.approx(0.8621509968297223, abs=1e-9)

    def test_size_rule_picks_vertices(self):
        cert = certify_support_exact(gauss_toeplitz(24, 2, seed=93),
                                     [0, 3, 5, 8, 10, 13, 15, 18, 20, 23])
        assert (cert.method, cert.work) == ("vertices", 14)

    @pytest.mark.parametrize("n,m,K,seed,work", [
        (60, 3, [0, 12, 24, 35, 47, 59], 0, 1431),
        (24, 2, [0, 3, 5, 8, 10, 13, 15, 18, 20, 23], 93, 14),
        (30, 3, [0, 1, 4, 5, 6, 7, 8, 9], 3, 231)])
    def test_benchmark_cases_stay_on_vertices(self, n, m, K, seed, work):
        # the analysis benchmark's exact cases: 1,431 vertices against 32
        # patterns is the closest to the size rule's limit
        cert = certify_support_exact(gauss_toeplitz(n, m, seed=seed), K)
        assert (cert.method, cert.work) == ("vertices", work)

    @pytest.mark.parametrize("n,m,step", [(150, 4, 10), (60, 5, 6), (500, 3, 10)])
    def test_many_vertices_per_pattern_take_patterns(self, monkeypatch, n, m, step):
        # 119,805 to 447,580 vertices, over 100 per sign pattern of |K| = 10:
        # the 512 LAD fits are 2-8 times faster and agree with the vertices
        H = gauss_toeplitz(n, m, seed=0)
        K = list(range(0, 10 * step, step))
        cert = certify_support_exact(H, K)
        assert (cert.method, cert.work) == ("patterns", 512)
        monkeypatch.setattr(ladsysid.cert, "_VERTEX_PER_LP", np.inf)
        exact = certify_support_exact(H, K)
        assert exact.method == "vertices"
        assert cert.verdict == exact.verdict
        assert cert.worst_gap == pytest.approx(exact.worst_gap, abs=1e-9)

    @staticmethod
    def instances():
        rng = np.random.default_rng(2024)
        for i in range(40):
            m = 1 + i % 5
            n = int(rng.integers(m + 4, 8 + 5 * m))
            k = int(rng.integers(1, 7))
            H = gauss_toeplitz(n, m, seed=20_000 + i)
            yield i, H, sorted(rng.choice(n, size=k, replace=False).tolist())

    @pytest.mark.parametrize("method,per_lp", [("vertices", np.inf), ("patterns", 0)])
    def test_each_method_matches_highs(self, monkeypatch, method, per_lp):
        monkeypatch.setattr(ladsysid.cert, "_VERTEX_PER_LP", per_lp)
        seen = {"certified": 0, "falsified": 0}
        for i, H, K in self.instances():
            cert = certify_support_exact(H, K)
            best = highs_pattern_best(H, K)
            assert cert.method == method
            seen[cert.verdict] += 1
            assert cert.verdict == ("certified" if best < 1.0 - 1e-8 else "falsified"), (i, K)
            assert cert.worst_gap == pytest.approx(1.0 - best, abs=1e-9 * max(1.0, best)), (i, K)
            if cert.verdict == "falsified":
                assert np.linalg.norm(cert.witness) == pytest.approx(1.0)
                assert balance_gap(H, K, cert.witness) <= 0.0, (i, K)
        assert seen["certified"] > 5 and seen["falsified"] > 5

    @pytest.mark.parametrize("per_lp", [np.inf, 0])
    def test_zero_rows_on_support_certified(self, monkeypatch, per_lp):
        # (Hz)_K = 0 for every z: H_K' sigma = 0, so each sign pattern is
        # skipped before any LAD solve
        monkeypatch.setattr(ladsysid.cert, "_VERTEX_PER_LP", per_lp)
        monkeypatch.setattr(ladsysid.cert, "lad_estimate", None)
        H = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        cert = certify_support_exact(H, [0, 4])
        assert cert.verdict == "certified"
        assert cert.worst_gap == 1.0
        assert cert.method == ("vertices" if per_lp else "patterns")

    @staticmethod
    def patterns_match_vertices(monkeypatch, H, K):
        certs = []
        for per_lp in (0, np.inf):
            monkeypatch.setattr(ladsysid.cert, "_VERTEX_PER_LP", per_lp)
            certs.append(certify_support_exact(H, K))
        assert [c.method for c in certs] == ["patterns", "vertices"]
        assert certs[0].verdict == certs[1].verdict == "certified"
        assert certs[0].worst_gap == pytest.approx(certs[1].worst_gap, abs=1e-12)
        return certs[0]

    @pytest.mark.parametrize("scale", [1e-310, 1e-13])
    def test_tiny_rows_on_support_certified(self, monkeypatch, scale):
        # ||H_K' sigma||_inf is ~scale while R is ~1: each pattern LP runs
        # on the column H_K' sigma / ||H_K' sigma||_inf, so no s bound
        # overflows and the entering column is not below the pivot threshold
        H = gauss_toeplitz(20, 2, seed=3).entries.copy()
        H[[2, 9]] *= scale
        cert = self.patterns_match_vertices(monkeypatch, H, [2, 9])
        assert cert.worst_gap == pytest.approx(1.0, abs=10 * scale)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_dependent_row_on_support_certified(self, monkeypatch, m, seed):
        # H_12 is the float sum of H_4 and H_20, so sigma = (1, -1, 1) leaves
        # H_K' sigma at rounding size
        H = gauss_toeplitz(10 * (m + 1), m, seed=seed).entries.copy()
        H[12] = H[4] + H[20]
        self.patterns_match_vertices(monkeypatch, H, [4, 12, 20])

    def test_repeated_pm1_rows_take_few_pivots(self, monkeypatch):
        # a +-1 Toeplitz H with m = 5 has at most 16 rows up to sign;
        # collapsed, each pattern's LAD solve walks a handful of pivots
        # where the 194 rows as they stand take up to 492
        pivots = []
        inner = ladsysid.cert.lad_estimate

        def counted(B, y):
            est = inner(B, y)
            pivots.append(est.iterations)
            return est
        monkeypatch.setattr(ladsysid.cert, "lad_estimate", counted)
        n, m, K = 200, 5, list(range(6))
        H = build_regressor(sample_input(InputDist.bernoulli_pm1(), n, m, 4), n, m)
        cert = certify_support_exact(H, K)
        assert (cert.method, cert.work) == ("patterns", 32)
        assert cert.worst_gap == pytest.approx(1.0 - highs_pattern_best(H, K), abs=1e-9)
        assert len(pivots) == 32 and max(pivots) <= 50

    def test_mirrored_complement_halves_the_ratio(self, monkeypatch):
        # appending -H_Kbar doubles ||(Hz)_Kbar||_1 for every z and leaves
        # (Hz)_K alone, so 1 - worst_gap, the largest ratio, halves
        monkeypatch.setattr(ladsysid.cert, "_VERTEX_PER_LP", 0)
        for i, H, K in self.instances():
            A = H.entries
            mirrored = np.vstack([A, -np.delete(A, K, axis=0)])
            best = 1.0 - certify_support_exact(A, K).worst_gap
            half = 1.0 - certify_support_exact(mirrored, K).worst_gap
            assert half == pytest.approx(best / 2.0, abs=1e-15), (i, K)

    @pytest.mark.parametrize("K", [[0, 2, 3, 5], list(range(6))])
    def test_rank_deficient_complement_falsified(self, K):
        # fewer than m rows outside K: some z has (Hz)_Kbar = 0
        H = gauss_toeplitz(6, 3, seed=12)
        cert = certify_support_exact(H, K)
        assert cert.verdict == "falsified"
        assert cert.worst_gap == -np.inf
        assert cert.work == 0
        assert balance_gap(H, K, cert.witness) < 0.0


    @pytest.mark.parametrize("n,m,K,seed", [(60, 5, [3, 20, 41], 7), (40, 3, [0, 9, 17, 33], 11),
                                            (50, 4, [5, 6, 30], 3), (30, 2, [1, 2, 3, 20, 28], 5)])
    def test_patterns_invariant_under_power_of_two_scaling(self, monkeypatch, n, m, K, seed):
        # the pattern LPs' tolerances are absolute, so H is brought to max|H|
        # in [1, 2) first: no power-of-two scaling may move the gap or make an
        # LP inaccurate
        monkeypatch.setattr(ladsysid.cert, "_VERTEX_PER_LP", 0)
        H = gauss_toeplitz(n, m, seed=seed).entries
        ref = 1.0 - highs_pattern_best(H, K)
        for e in (-1000, -600, -300, -100, -60, -30, -10, -1,
                  1, 10, 20, 60, 100, 300, 600, 900):
            cert = certify_support_exact(np.ldexp(H, e), K)
            assert cert.method == "patterns"
            assert cert.worst_gap == pytest.approx(ref, abs=1e-9), e

    def test_bit_identical_to_pattern_reference(self):
        # m = 1-5, |K| = 1-8, Gaussian, +-1 and half-integer Toeplitz inputs;
        # every fourth shape pairs its support rows as h and -h (and zeroes
        # an odd one out), so the all-ones pattern has H_K' sigma = 0
        rng = np.random.default_rng(23)
        seen = {"shapes": 0, "cancel": 0}
        for i in range(90):
            m, k = 1 + i % 5, 1 + i % 8
            n = k + m + int(rng.integers(2, 16))
            dist = InputDist.bernoulli_pm1() if i % 3 == 1 else InputDist.gaussian(1.0)
            H = np.array(build_regressor(sample_input(dist, n, m, 40_000 + i), n, m).entries)
            if i % 3 == 2:
                H = np.round(2.0 * H) / 2.0
            K = sorted(rng.choice(n, size=k, replace=False).tolist())
            if i % 4 == 0:
                H[K[1::2]] = -H[K[0:k - k % 2:2]]
                H[K[-1]] *= 1 - k % 2
            A = ladsysid.cert._unit_scaled(H)
            idx = np.array(K)
            cidx = np.setdiff1d(np.arange(n), idx)
            if np.linalg.matrix_rank(A[cidx]) < m:
                continue           # certify_support_exact decides these before fitting
            best, z = pattern_max_reference(A, idx, cidx)
            got, w = ladsysid.cert._pattern_max(A, idx, cidx)
            assert got == best, (i, n, m, K)
            assert (w is None and z is None) or w.tobytes() == z.tobytes(), (i, n, m, K)
            signs = np.array(list(itertools.product((1.0, -1.0), repeat=k - 1)))
            tails = np.hstack([np.ones((len(signs), 1)), signs]) @ A[idx]
            seen["cancel"] += bool(np.all(tails == 0.0, axis=1).any())
            seen["shapes"] += 1
        assert seen["shapes"] >= 60 and seen["cancel"] >= 10, seen

    def test_pattern_lp_failure_is_typed(self, monkeypatch):
        monkeypatch.setattr(ladsysid.cert, "_VERTEX_PER_LP", 0)
        monkeypatch.setattr(ladsysid.cert, "lad_estimate",
                            lambda B, y: Estimate(None, 0.0, y, "iteration_limit", "lad"))
        with pytest.raises(LadSysIdError, match="iteration_limit"):
            certify_support_exact(gauss_toeplitz(60, 5, seed=7), [3, 20, 41])


class TestNonFiniteH:
    """Every certifier entry point takes H through the estimators' finiteness
    check, so a NaN cannot pass for an unfalsified verdict with gap inf."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [
        lambda H: balance_gap(H, [0], np.ones(2)),
        lambda H: certify_support_exact(H, [0]),
        lambda H: certify_support_mc(H, [0], trials=100, seed=1),
        lambda H: empirical_recovery_rate(H, [0], trials=2, magnitude=Magnitude(100.0, 50.0),
                                          seed=1),
    ], ids=["balance_gap", "exact", "mc", "recovery_rate"])
    def test_rejected(self, call, value):
        H = np.array(gauss_toeplitz(20, 2, seed=4).entries)
        H[5, 1] = value
        with pytest.raises(DimensionError, match="finite"):
            call(H)


class TestMcCertifier:
    def test_deterministic(self):
        H = gauss_toeplitz(20, 2, seed=5)
        a = certify_support_mc(H, [0, 3], trials=500, seed=9)
        b = certify_support_mc(H, [0, 3], trials=500, seed=9)
        assert a.verdict == b.verdict
        assert a.worst_gap == b.worst_gap

    def test_empty_support_unfalsified(self):
        H = gauss_toeplitz(20, 2, seed=6)
        cert = certify_support_mc(H, [], trials=200, seed=1)
        assert cert.verdict == "unfalsified"
        assert cert.worst_gap > 0.0
        assert (cert.method, cert.work) == ("mc", 200)

    def test_finds_violations_of_falsified_supports(self):
        cert = certify_support_mc(SPIKE_COLUMN, [0], trials=50, seed=2)
        assert cert.verdict == "falsified"
        assert cert.witness is not None
        assert balance_gap(SPIKE_COLUMN, [0], cert.witness) <= 0.0

    def test_cross_validates_exact_falsifications(self):
        rng = np.random.default_rng(7)
        found = 0
        for i in range(20):
            H = gauss_toeplitz(10, 2, seed=500 + i)
            K = sorted(rng.choice(10, size=3, replace=False).tolist())
            exact = certify_support_exact(H, K)
            if exact.verdict != "falsified":
                continue
            found += 1
            mc = certify_support_mc(H, K, trials=10**5, seed=600 + i)
            if mc.verdict == "falsified":
                assert balance_gap(H, K, mc.witness) <= 0.0
            else:
                # a clean sweep must at least sit near the boundary
                assert mc.worst_gap < 0.5
        assert found > 0

    def test_never_certifies(self):
        H = gauss_toeplitz(15, 1, seed=8)
        cert = certify_support_mc(H, [2], trials=50, seed=3)
        assert cert.verdict in ("unfalsified", "falsified")

    def test_bit_identical_to_reference_loop(self):
        # one batch either side, or a batch plus one direction that joins it
        rng = np.random.default_rng(31)
        seen = {"falsified": 0, "unfalsified": 0}
        for i in range(160):
            n = int(rng.integers(3, 801))
            m = min(int(rng.integers(1, 11)), n)
            k = int(rng.integers(n // 3 if i % 4 == 0 else 0, n // 2 + 1))
            dist = InputDist.bernoulli_pm1() if i % 2 else InputDist.gaussian(1.0)
            H = build_regressor(sample_input(dist, n, m, 7_000 + i), n, m)
            K = sorted(rng.choice(n, size=k, replace=False).tolist())
            chunk = ladsysid.cert._BATCH_ENTRIES // n
            trials = chunk - 1 + i % 3
            cert = certify_support_mc(H, K, trials=trials, seed=i)
            worst, z = mc_reference(H, K, trials, seed=i)
            assert cert.worst_gap == worst, (i, n, m, k, trials)
            assert cert.verdict == ("falsified" if worst <= 0.0 else "unfalsified")
            if cert.verdict == "falsified":
                assert np.array_equal(cert.witness, z), (i, n, m, k)
            else:
                assert cert.witness is None
            seen[cert.verdict] += 1
        assert seen["falsified"] >= 20 and seen["unfalsified"] >= 20

    @staticmethod
    def _batched_shapes(rng):
        """(H, K, trials) for the multi-batch oracle test: Toeplitz inputs of
        both kinds over random sizes, supports from empty to most rows, m = 1,
        n beyond one direction per batch, zero and subnormal support rows."""
        entries = ladsysid.cert._BATCH_ENTRIES
        for i in range(200):
            n = int(np.exp(rng.uniform(np.log(20), np.log(3000))))
            m = 1 if i % 10 == 0 else min(int(rng.integers(1, 9)), n)
            low, high = [(0, 1), (n // 2, n + 1), (1, 4), (n // 3, n // 2 + 1),
                         (0, n // 2 + 1)][i % 5]
            k = min(int(rng.integers(low, max(high, low + 1))), n)
            dist = InputDist.bernoulli_pm1() if i % 2 else InputDist.gaussian(1.0)
            H = build_regressor(sample_input(dist, n, m, 9_000 + i), n, m)
            size = entries // n
            batches = int(rng.integers(2, min(60, 40_000 // size) + 1))
            trials = size * batches - int(rng.integers(0, size))
            yield H, sorted(rng.choice(n, size=k, replace=False).tolist()), trials
        for i, n in enumerate((entries + 1, entries + 977)):
            H = build_regressor(sample_input(InputDist.gaussian(1.0), n, 2 + i, i), n, 2 + i)
            yield H, [3] if i else [], int(rng.integers(40, 61))
        for scale in (0.0, 2.0 ** -1070):
            H = np.array(gauss_toeplitz(300, 3, seed=12).entries)
            H[[4, 90, 200]] *= scale
            yield H, [4, 90, 200], 20_000
            yield H, [4, 90, 200, 201], 20_000

    def test_bit_identical_to_batched_reference(self, monkeypatch):
        # trials span 2-60 batches, so every route past the first block runs:
        # pruned blocks, blocks scored whole and calls that stop pruning
        routes = {"pruned": 0, "whole": 0}
        inner = ladsysid.cert._ProbeBound.survivors

        def recorded(self, Z, worst, buf):
            keep = inner(self, Z, worst, buf)
            routes["whole" if keep is None else "pruned"] += 1
            return keep
        monkeypatch.setattr(ladsysid.cert._ProbeBound, "survivors", recorded)
        seen = {"falsified": 0, "unfalsified": 0}
        for i, (H, K, trials) in enumerate(self._batched_shapes(np.random.default_rng(41))):
            cert = certify_support_mc(H, K, trials=trials, seed=i)
            worst, z = mc_batched_reference(H, K, trials, seed=i)
            assert cert.worst_gap == worst, (i, np.shape(H), len(K), trials)
            assert cert.verdict == ("falsified" if worst <= 0.0 else "unfalsified")
            if cert.verdict == "falsified":
                assert np.array_equal(cert.witness, z), (i, np.shape(H), len(K))
            else:
                assert cert.witness is None
            assert (cert.method, cert.work) == ("mc", trials)
            seen[cert.verdict] += 1
        assert seen["falsified"] >= 20 and seen["unfalsified"] >= 20, seen
        assert routes["pruned"] >= 500 and routes["whole"] >= 20, routes

    @pytest.mark.parametrize("n,m,K,dist", [
        (40_000, 2, [7], InputDist.bernoulli_pm1()),
        (40_000, 3, [5, 100], InputDist.gaussian(1.0))])
    def test_pruned_blocks_score_unit_directions(self, monkeypatch, n, m, K, dist):
        # three directions per batch, so one survivor makes a batch of a
        # bounded block scored whole: its rows are drawn raw and must be
        # normalized first, as the witness is a unit direction
        pruned, whole = [], []
        survivors, abs_sums = ladsysid.cert._ProbeBound.survivors, ladsysid.cert._abs_sums

        def recorded(self, Z, worst, buf):
            keep = survivors(self, Z, worst, buf)
            pruned.append(keep is not None)
            return keep

        def checked(Z, *args):
            if any(pruned):
                whole.append(np.abs(np.linalg.norm(Z, axis=1) - 1.0).max())
            return abs_sums(Z, *args)
        monkeypatch.setattr(ladsysid.cert._ProbeBound, "survivors", recorded)
        monkeypatch.setattr(ladsysid.cert, "_abs_sums", checked)
        H = build_regressor(sample_input(dist, n, m, 3), n, m)
        cert = certify_support_mc(H, K, trials=3000, seed=4)
        worst, _ = mc_batched_reference(H, K, 3000, seed=4)
        assert (cert.verdict, cert.worst_gap) == ("unfalsified", worst)
        assert all(pruned) and len(whole) >= 20 and max(whole) < 1e-15

    def test_benchmark_instance_scores_few_batches_whole(self, monkeypatch):
        # perfbench's analysis case at seed 1: n=500, m=5, K={1,2,3}, 1e5 directions
        H = build_regressor(sample_input(InputDist.gaussian(1.0), 500, 5, 1), 500, 5)
        whole = []
        inner = ladsysid.cert._abs_sums

        def recorded(Z, *args):
            whole.append(Z.shape[0])
            return inner(Z, *args)
        monkeypatch.setattr(ladsysid.cert, "_abs_sums", recorded)
        cert = certify_support_mc(H, [1, 2, 3], trials=100_000, seed=1)
        assert 4 * len(whole) < len(ladsysid.cert._batch_sizes(100_000, 500))
        worst, _ = mc_batched_reference(H, [1, 2, 3], 100_000, seed=1)
        assert (cert.verdict, cert.worst_gap) == ("unfalsified", worst)

    @pytest.mark.parametrize("dist,n,m,K,e", [
        (InputDist.gaussian(1.0), 60, 3, [0, 5, 9], -1040),
        (InputDist.bernoulli_pm1(), 50, 2, [0, 5, 9], -990),
        (InputDist.gaussian(1.0), 60, 3, [0, 5, 9], 5),
    ])
    def test_invariant_under_power_of_two_scaling(self, dist, n, m, K, e):
        # H is brought to max|H| in [1, 2) first, so ||(Hz)_K||_1 stays
        # clear of the scores' 1e-300 floor however small H is; H * 2^-1040
        # is subnormal and keeps only about 40 bits of each entry
        H = build_regressor(sample_input(dist, n, m, 1), n, m).entries
        ref = certify_support_mc(H, K, trials=2000, seed=3)
        cert = certify_support_mc(np.ldexp(H, e), K, trials=2000, seed=3)
        assert cert.verdict == ref.verdict
        assert cert.worst_gap == pytest.approx(ref.worst_gap, rel=1e-9)

    @pytest.mark.parametrize("trials", [1, 2, 9, 10, 11, 29, 30, 31])
    def test_batch_size_keeps_directions_and_first_minimum(self, monkeypatch, trials):
        # 10 directions per batch at n = 40: the draws come from one stream,
        # so the worst direction is the same whichever way they are split
        H = gauss_toeplitz(40, 3, seed=11)
        K = [0, 5, 9, 17, 30]
        whole = certify_support_mc(H, K, trials=trials, seed=4)
        monkeypatch.setattr(ladsysid.cert, "_BATCH_ENTRIES", 400)
        split = certify_support_mc(H, K, trials=trials, seed=4)
        assert split.verdict == whole.verdict
        assert split.worst_gap == pytest.approx(whole.worst_gap, rel=1e-13, abs=1e-15)
        worst, z = mc_reference(H, K, trials, seed=4)
        assert split.worst_gap == pytest.approx(worst, rel=1e-13, abs=1e-15)
        if whole.verdict == "falsified":
            assert np.array_equal(split.witness, whole.witness)


class TestVertexScreen:
    """The vertex route SVDs only the vertices its cofactor screen cannot
    rule out, and its outputs are those of SVDing every vertex."""

    #: complement sizes that keep C(n - |K|, m - 1) near 2,000 or below
    SPAN = {1: 12, 2: 400, 3: 64, 4: 24, 5: 16, 6: 14}

    @classmethod
    def _shapes(cls, rng):
        """(A, K, batch entries) over m = 1-6, Gaussian and +-1 Toeplitz
        inputs and six row treatments: none; repeated and negated rows,
        which make some row sets rank deficient (c = 0); zero rows; nearly
        parallel rows (kappa up to 1e12); rows scaled into the subnormal
        range or near it; and half-integer entries, whose vertices tie
        exactly.  A third of the calls cut the batches to 8-200 vertices."""
        for i in range(264):
            m = 1 + i % 6
            dist = InputDist.bernoulli_pm1() if (i // 6) % 2 else InputDist.gaussian(1.0)
            k = int(rng.integers(1, 6))
            n = k + int(rng.integers(m + 1, cls.SPAN[m] + 1))
            H = np.array(build_regressor(sample_input(dist, n, m, 30_000 + i), n, m).entries)
            K = sorted(rng.choice(n, size=k, replace=False).tolist())
            rest = np.setdiff1d(np.arange(n), K)
            pick = rng.choice(rest, size=min(4, rest.size), replace=False)
            kind = (i // 12) % 6
            if kind == 1:
                H[pick[1]] = H[pick[0]]
                H[pick[-1]] = -H[pick[0]]
            elif kind == 2:
                H[pick[0]] = 0.0
            elif kind == 3:
                H[pick[1]] = H[pick[0]] + 10.0 ** -rng.uniform(3, 12) * rng.standard_normal(m)
            elif kind == 4:
                H[pick[:2]] *= 2.0 ** -int(rng.integers(1020, 1075))
                H[K[0]] *= 2.0 ** -600
            elif kind == 5:
                H = np.round(2.0 * H) / 2.0
            entries = n * int(rng.integers(8, 201)) if i % 3 == 0 else None
            yield ladsysid.cert._unit_scaled(H), K, entries

    def test_bit_identical_to_vertex_reference(self, monkeypatch):
        seen = {"shapes": 0, "screened": 0, "svd": 0, "weak": 0, "batches": 0}
        inner = ladsysid.cert._VertexScreen.bounds

        def recorded(self, C, rows, on, off):
            hi, lo = inner(self, C, rows, on, off)
            seen["weak"] += int(np.isinf(hi).sum())
            seen["batches"] += 1
            return hi, lo
        monkeypatch.setattr(ladsysid.cert._VertexScreen, "bounds", recorded)
        svd = np.linalg.svd

        def counted(M, *args, **kwargs):
            seen["svd"] += M.shape[0]
            return svd(M, *args, **kwargs)
        for A, K, entries in self._shapes(np.random.default_rng(19)):
            n, m = A.shape
            idx = np.array(K)
            cidx = np.setdiff1d(np.arange(n), idx)
            if np.linalg.matrix_rank(A) < m or np.linalg.matrix_rank(A[cidx]) < m:
                continue           # certify_support_exact decides these before enumerating
            monkeypatch.setattr(ladsysid.cert, "_BATCH_ENTRIES", entries or 131_072)
            # a vertex that puts only subnormal rows outside its own may
            # overflow its ratio to inf, in both
            with np.errstate(over="ignore"):
                best, z = vertex_max_reference(A, idx, cidx)
                monkeypatch.setattr(np.linalg, "svd", counted)
                got, w = ladsysid.cert._vertex_max(A, idx, cidx)
                monkeypatch.setattr(np.linalg, "svd", svd)
            assert got == best, (n, m, K, entries)
            assert w.tobytes() == z.tobytes(), (n, m, K, entries)
            seen["shapes"] += 1
            seen["screened"] += math.comb(cidx.size, m - 1)
        assert seen["shapes"] >= 200, seen
        assert seen["batches"] >= 300 and seen["weak"] >= 1000, seen
        assert seen["svd"] < seen["screened"] / 2, seen

    def test_analysis_case_svds_few_vertices(self, monkeypatch):
        # the analysis benchmark's n=60 case: 1,431 vertices, one batch
        rows = []
        svd = np.linalg.svd

        def counted(M, *args, **kwargs):
            rows.append(M.shape[0])
            return svd(M, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        cert = certify_support_exact(gauss_toeplitz(60, 3, seed=0), [0, 12, 24, 35, 47, 59])
        assert (cert.verdict, cert.method, cert.work) == ("certified", "vertices", 1431)
        assert f"{cert.worst_gap:.6f}" == "0.805373"
        assert len(rows) == 1 and rows[0] <= 4, rows


class TestBatchSizes:
    def test_sizes_cover_total_without_a_lone_tail(self, monkeypatch):
        monkeypatch.setattr(ladsysid.cert, "_BATCH_ENTRIES", 100)
        sizes = ladsysid.cert._batch_sizes
        assert sizes(1, 10) == [1]
        assert sizes(10, 10) == [10]
        assert sizes(11, 10) == [11]
        assert sizes(12, 10) == [10, 2]
        assert sizes(31, 10) == [10, 10, 11]
        assert sizes(3, 200) == [1, 1, 1]     # wider than a batch: one row each

    @pytest.mark.parametrize("n", [1, 7, 40, 500, 131_072, 200_000])
    def test_blocks_cut_whole_batches(self, n):
        # whatever the cut, the blocks are the batches in order; the first
        # holds `first` directions or every batch, and each later one at
        # most `most` directions or one batch, but for the lone direction
        # the last batch may take in
        rng = np.random.default_rng(n)
        for _ in range(200):
            sizes = ladsysid.cert._batch_sizes(int(rng.integers(1, 20_000)), n)
            first, most = int(rng.integers(1, 60)), int(rng.integers(1, 5_000))
            blocks = ladsysid.cert._blocks(sizes, first, most)
            assert [b for block in blocks for b in block] == sizes
            assert all(blocks) and (sum(blocks[0]) >= first or len(blocks) == 1)
            for block in blocks[1:]:
                lone = block is blocks[-1] and sizes[-1] == sizes[0] + 1
                assert len(block) == 1 or sum(block) - lone <= most, (sizes, first, most)


class TestRecoveryRate:
    def test_certified_support_recovers_always(self):
        H = gauss_toeplitz(14, 2, seed=9)
        cert = certify_support_exact(H, [1, 6])
        assert cert.verdict == "certified"
        rate = empirical_recovery_rate(H, [1, 6], trials=20,
                                       magnitude=Magnitude(100.0, 50.0), seed=4)
        assert rate == 1.0

    def test_fully_corrupted_never_recovers(self):
        H = gauss_toeplitz(12, 2, seed=10)
        rate = empirical_recovery_rate(H, list(range(12)), trials=10,
                                       magnitude=Magnitude(100.0, 50.0), seed=5)
        assert rate <= 0.1

    def test_empty_support_trivially_recovers(self):
        H = gauss_toeplitz(10, 2, seed=11)
        rate = empirical_recovery_rate(H, [], trials=5,
                                       magnitude=Magnitude(100.0, 50.0), seed=6)
        assert rate == 1.0


class TestSupportIndices:
    """Every entry point that takes a support K: an index that is not
    integral, or a bool, is a DimensionError rather than the row int() would
    give, and an integral float names its row."""

    H = gauss_toeplitz(14, 2, seed=9)
    ENTRY_POINTS = {
        "exact": lambda H, K: certify_support_exact(H, K),
        "mc": lambda H, K: certify_support_mc(H, K, trials=200, seed=1),
        "balance_gap": lambda H, K: balance_gap(H, K, [1.0, -0.5]),
        "recovery": lambda H, K: empirical_recovery_rate(
            H, K, trials=3, magnitude=Magnitude(100.0, 50.0), seed=4),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_non_integral_and_bool_indices_rejected(self, entry):
        for K in ([1.5], [3, 6.25], [True], [np.bool_(False)], [float("nan")]):
            with pytest.raises(DimensionError, match="integers"):
                self.ENTRY_POINTS[entry](self.H, K)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_integral_floats_name_their_rows(self, entry):
        call = self.ENTRY_POINTS[entry]
        assert call(self.H, [1.0, np.float32(6.0)]) == call(self.H, [1, np.int64(6)])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_repeated_indices_count_once(self, entry):
        call = self.ENTRY_POINTS[entry]
        assert call(self.H, [6, 1, 1, 6]) == call(self.H, [1, 6])

    def test_support_is_reported_as_a_set(self):
        assert certify_support_exact(self.H, [0, 0, 1]).support == (0, 1)


class TestCounts:
    """A trial count or a seed is a whole number at every certifier entry
    point: 500.0 is 500, while a bool or a fraction is an error rather than
    the number int() would make of it."""

    H = gauss_toeplitz(14, 2, seed=9)
    ENTRY_POINTS = {
        "mc": lambda H, trials, seed: certify_support_mc(H, [1, 6], trials=trials, seed=seed),
        "recovery": lambda H, trials, seed: empirical_recovery_rate(
            H, [1, 6], trials=trials, magnitude=Magnitude(100.0, 50.0), seed=seed),
        "concentration": lambda H, trials, seed: concentration_diagnostic(
            14, 2, [0.6, 0.8], trials=trials, seed=seed).samples,
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bad_counts_rejected(self, entry):
        for trials in (0, -3, 2.5, 500.5, True, np.bool_(True), float("nan")):
            with pytest.raises(DimensionError, match="trials"):
                self.ENTRY_POINTS[entry](self.H, trials, 4)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bad_seeds_rejected(self, entry):
        for seed in (2.5, True, -1):
            with pytest.raises(SpecError, match="seed"):
                self.ENTRY_POINTS[entry](self.H, 5, seed)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_integral_floats_are_their_integers(self, entry):
        call = self.ENTRY_POINTS[entry]
        got, expected = call(self.H, 5.0, 4.0), call(self.H, 5, 4)
        assert np.array_equal(got, expected) if entry == "concentration" else got == expected

    def test_mc_reports_integer_work(self):
        cert = certify_support_mc(self.H, [1, 6], trials=500.0, seed=2.0)
        assert cert == certify_support_mc(self.H, [1, 6], trials=500, seed=2)
        assert type(cert.work) is int and cert.work == 500


class TestConcentration:
    def test_gaussian_mean_near_reference(self):
        z = np.array([0.6, -0.8])
        rep = concentration_diagnostic(4000, 2, z, trials=10, seed=12)
        assert rep.reference == pytest.approx(np.sqrt(2.0 / np.pi))
        assert rep.rel_deviation <= 0.02

    def test_bernoulli_m1_exact(self):
        rep = concentration_diagnostic(200, 1, [1.0], trials=4, seed=13,
                                       dist=InputDist.bernoulli_pm1())
        assert rep.mean == pytest.approx(1.0)
        assert rep.std == pytest.approx(0.0, abs=1e-15)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            concentration_diagnostic(100, 2, [1.0, 1.0], trials=2, seed=14)

    def test_nan_direction_is_not_a_unit_vector(self):
        with pytest.raises(ValueError, match="unit vector"):
            concentration_diagnostic(100, 2, [np.nan, 1.0], trials=2, seed=14)

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            concentration_diagnostic(100, 3, [1.0, 0.0], trials=2, seed=15)


class TestExpectedGain:
    def test_zero_offset(self):
        for t in (0.5, 1.0, 4.0):
            assert expected_gain(0.0, t) == pytest.approx(
                np.sqrt(2.0 / np.pi) * t, rel=1e-14)

    def test_unit_ratio_constant(self):
        for t in (0.25, 1.0, 10.0):
            assert expected_gain(t, t) / t == pytest.approx(0.1666, abs=5e-4)

    def test_large_offset_is_negligible(self):
        assert expected_gain(10.0, 1.0) < 1e-4
        assert expected_gain(30.0, 3.0) < 3e-4

    def test_nonnegative_and_nonincreasing(self):
        ls = np.linspace(0.0, 8.0, 60)
        vals = [expected_gain(l, 1.3) for l in ls]
        assert all(v >= 0.0 for v in vals)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sign_symmetric_in_l(self):
        assert expected_gain(-2.0, 1.0) == expected_gain(2.0, 1.0)

    def test_matches_quadrature(self):
        for lt in (0.0, 0.4, 1.0, 2.7, 6.0, 10.0):
            assert expected_gain(lt, 1.0) == pytest.approx(
                gain_quadrature(lt, 1.0), abs=1e-8)
        assert expected_gain(5.0, 2.5) == pytest.approx(
            gain_quadrature(5.0, 2.5), abs=2.5e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_gain(1.0, 0.0)
        with pytest.raises(ValueError):
            expected_gain(1.0, -2.0)
