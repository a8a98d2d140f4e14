import warnings

import numpy as np
import pytest

from ladsysid import (DimensionError, InputDist, Magnitude, NoiseSpec,
                      OutlierSpec, SpecError, balance_gap, build_regressor,
                      certify_support_exact, certify_support_mc,
                      concentration_diagnostic, empirical_recovery_rate,
                      lad_estimate, ls_estimate, sample_input, sample_noise,
                      sample_outliers)
from ladsysid.matgen import derive_seed, rng_from_seed


class TestSampleInput:
    def test_bernoulli_support(self):
        seq = sample_input(InputDist.bernoulli_pm1(), 100, 3, seed=7)
        assert set(np.unique(seq)) <= {-1.0, 1.0}
        assert len(seq) == 102

    def test_gaussian_law_of_large_numbers(self):
        n, m = 10**4, 5
        seq = sample_input(InputDist.gaussian(1.0), n, m, seed=1)
        size = n + m - 1
        assert abs(seq.mean()) <= 4.0 / np.sqrt(size)
        assert abs(seq.var() - 1.0) <= 0.05

    def test_deterministic(self):
        a = sample_input(InputDist.gaussian(2.0), 50, 4, seed=123)
        b = sample_input(InputDist.gaussian(2.0), 50, 4, seed=123)
        assert np.array_equal(a, b)

    def test_seed_changes_draw(self):
        a = sample_input(InputDist.gaussian(1.0), 50, 4, seed=1)
        b = sample_input(InputDist.gaussian(1.0), 50, 4, seed=2)
        assert not np.array_equal(a, b)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            sample_input(InputDist.gaussian(1.0), 3, 4, seed=0)
        with pytest.raises(DimensionError):
            sample_input(InputDist.gaussian(1.0), 3, 0, seed=0)

    def test_values_frozen(self):
        seq = sample_input(InputDist.gaussian(1.0), 10, 2, seed=0)
        with pytest.raises(ValueError):
            seq[0] = 99.0

    def test_bad_dist(self):
        with pytest.raises(SpecError):
            InputDist("poisson")
        with pytest.raises(SpecError):
            InputDist.gaussian(0.0)

    def test_bernoulli_keeps_default_sigma(self):
        assert InputDist("bernoulli_pm1", 1) == InputDist.bernoulli_pm1()
        with pytest.raises(SpecError, match="does not use sigma"):
            InputDist("bernoulli_pm1", sigma=5.0)


class TestBuildRegressor:
    def test_three_by_three_window_pattern(self):
        a, b, c, d, e = 1.0, 2.0, 3.0, 4.0, 5.0
        H = build_regressor([a, b, c, d, e], 3, 3)
        assert np.array_equal(H.entries,
                              [[a, b, c], [b, c, d], [c, d, e]])

    def test_single_column(self):
        h = np.arange(6.0)
        H = build_regressor(h, 6, 1)
        assert np.array_equal(H.entries[:, 0], h)

    def test_single_row(self):
        H = build_regressor([7.0, 8.0], 1, 2)
        assert np.array_equal(H.entries, [[7.0, 8.0]])

    def test_first_and_last_rows(self):
        seq = sample_input(InputDist.gaussian(1.0), 40, 6, seed=5)
        H = build_regressor(seq, 40, 6)
        assert np.array_equal(H.entries[0], seq[:6])
        assert np.array_equal(H.entries[-1], seq[-6:])

    def test_antidiagonal_constancy(self):
        seq = sample_input(InputDist.gaussian(1.0), 12, 4, seed=9)
        H = build_regressor(seq, 12, 4).entries
        for i in range(12):
            for j in range(4):
                for i2 in range(12):
                    j2 = i + j - i2
                    if 0 <= j2 < 4:
                        assert H[i, j] == H[i2, j2]

    def test_depends_on_exactly_n_plus_m_minus_1_scalars(self):
        seq = sample_input(InputDist.gaussian(1.0), 30, 3, seed=2)
        H = build_regressor(seq, 30, 3)
        assert len(np.unique(H.entries)) == 32

    def test_matches_scipy_hankel_bit_for_bit(self):
        # C order as well as values: the memory order fixes the bits of A @ x
        import scipy.linalg
        rng = np.random.default_rng(4)
        shapes = [(1, 1), (1, 6), (7, 1), (2, 5), (3, 9), (600, 5), (30000, 5)]
        shapes += [tuple(int(k) for k in rng.integers(1, 300, size=2)) for _ in range(30)]
        for n, m in shapes:
            for dist in (InputDist.gaussian(1.0), InputDist.bernoulli_pm1()):
                seq = sample_input(dist, max(n, m), m, seed=n)[:n + m - 1]
                H = build_regressor(seq, n, m).entries
                expected = scipy.linalg.hankel(seq[:n], seq[n - 1:])
                assert H.shape == expected.shape == (n, m)
                assert H.tobytes() == expected.tobytes()
                assert H.flags.c_contiguous and not H.flags.writeable

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            build_regressor(np.zeros(7), 5, 2)

    def test_sizes_below_one(self):
        with pytest.raises(DimensionError, match="n must be"):
            build_regressor(np.zeros(1), 0, 2)
        with pytest.raises(DimensionError, match="m must be"):
            build_regressor(np.zeros(4), 5, 0)

    def test_accepts_sequence_object(self):
        seq = sample_input(InputDist.bernoulli_pm1(), 8, 2, seed=3)
        H = build_regressor(seq, 8, 2)
        assert H.shape == (8, 2)


class TestSampleNoise:
    def test_gamma_second_moment_identity(self):
        # E[w^2] = shape*scale^2 + (shape*scale)^2 = 1/3 + 2/3 = 1
        shape, scale = 2.0, 1.0 / np.sqrt(6.0)
        assert abs(shape * scale**2 + (shape * scale) ** 2 - 1.0) < 1e-12

    def test_exponential_second_moment_identity(self):
        mean = np.sqrt(2.0) / 2.0
        assert abs(2.0 * mean**2 - 1.0) < 1e-12

    @pytest.mark.parametrize("spec", [
        NoiseSpec.gaussian(1.0, seed=11),
        NoiseSpec.gamma(2.0, 1.0 / np.sqrt(6.0), seed=12),
        NoiseSpec.exponential(np.sqrt(2.0) / 2.0, seed=13),
    ])
    def test_unit_energy_presets(self, spec):
        w = sample_noise(spec, 10**5)
        assert abs(np.mean(w**2) - 1.0) <= 0.02

    def test_none_is_zero(self):
        assert not sample_noise(NoiseSpec.none(), 50).any()

    def test_deterministic(self):
        spec = NoiseSpec.gamma(2.0, 0.3, seed=5)
        assert np.array_equal(sample_noise(spec, 100), sample_noise(spec, 100))

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown noise kind"):
            NoiseSpec("cauchy")

    def test_negative_length(self):
        with pytest.raises(DimensionError, match="n must be"):
            sample_noise(NoiseSpec.gaussian(1.0), -1)

    def test_invalid_parameters(self):
        with pytest.raises(SpecError):
            NoiseSpec.gaussian(-1.0)
        with pytest.raises(SpecError):
            NoiseSpec.gamma(0.0, 1.0)
        with pytest.raises(SpecError):
            NoiseSpec.exponential(0.0)

    @pytest.mark.parametrize("kind,field", [
        ("none", "sigma"), ("gaussian", "mean"), ("gamma", "sigma"), ("exponential", "scale")])
    def test_field_the_kind_does_not_use_keeps_its_default(self, kind, field):
        used = {"none": {}, "gaussian": {"sigma": 1.0}, "gamma": {"shape": 2.0, "scale": 1.0},
                "exponential": {"mean": 1.0}}[kind]
        NoiseSpec(kind, **used)
        with pytest.raises(SpecError, match=f"does not use {field}"):
            NoiseSpec(kind, **used, **{field: 2.0})


class TestSampleOutliers:
    def test_zero_count_is_zero_vector(self):
        e = sample_outliers(OutlierSpec.fixed(0, seed=1), 20)
        assert not e.any()

    def test_full_count_is_dense(self):
        e = sample_outliers(OutlierSpec.fixed(20, seed=2), 20)
        assert np.count_nonzero(e) == 20

    def test_support_is_distinct_and_magnitudes_large(self):
        spec = OutlierSpec.fixed(30, magnitude=Magnitude(100.0, 1.0), seed=3)
        e = sample_outliers(spec, 200)
        nz = np.nonzero(e)[0]
        assert len(nz) == 30
        assert (e[nz] > 50).all()

    def test_uniform_fraction_mean_count(self):
        # E[round(U * 0.2 * 1000)] = 100; Monte Carlo within 3%
        counts = [
            np.count_nonzero(sample_outliers(
                OutlierSpec.uniform_fraction(0.2, seed=s), 1000))
            for s in range(10**4)
        ]
        assert abs(np.mean(counts) - 100.0) <= 3.0

    def test_unknown_count_model(self):
        with pytest.raises(SpecError, match="unknown count model"):
            OutlierSpec("bursty", k=3)

    def test_negative_length(self):
        with pytest.raises(DimensionError, match="n must be"):
            sample_outliers(OutlierSpec.fixed(0), -1)

    def test_count_exceeds_n(self):
        with pytest.raises(SpecError):
            sample_outliers(OutlierSpec.fixed(5, seed=0), 3)

    def test_deterministic(self):
        spec = OutlierSpec.uniform_fraction(0.5, seed=77)
        assert np.array_equal(sample_outliers(spec, 100), sample_outliers(spec, 100))

    def test_support_independent_of_magnitude_params(self):
        a = sample_outliers(OutlierSpec.fixed(10, Magnitude(100.0, 50.0), seed=4), 100)
        b = sample_outliers(OutlierSpec.fixed(10, Magnitude(-3.0, 0.5), seed=4), 100)
        assert np.array_equal(a != 0, b != 0)

    def test_invalid_spec(self):
        with pytest.raises(SpecError):
            OutlierSpec.fixed(-1)
        with pytest.raises(SpecError):
            OutlierSpec.uniform_fraction(1.5)
        with pytest.raises(SpecError):
            Magnitude(0.0, 0.0)

    def test_field_the_count_model_does_not_use_keeps_its_default(self):
        with pytest.raises(SpecError, match="does not use max_fraction"):
            OutlierSpec("fixed", k=3, max_fraction=0.3)
        with pytest.raises(SpecError, match="does not use k"):
            OutlierSpec("uniform_fraction", k=3, max_fraction=0.3)


class TestSeeds:
    """Every seed is a whole number: a bool or a fraction is a SpecError
    rather than the seed int() would make of it, an integral float is its
    integer, and an int keeps its draws."""

    ENTRY_POINTS = {
        "sample_input": lambda s: sample_input(InputDist.gaussian(1.0), 8, 2, seed=s),
        "derive_seed": lambda s: derive_seed(s, 4, 7),
        "rng_from_seed": lambda s: rng_from_seed(s).standard_normal(3),
        "noise": lambda s: sample_noise(NoiseSpec.gaussian(1.0, seed=s), 5),
        "outliers": lambda s: sample_outliers(OutlierSpec.fixed(2, seed=s), 9),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bool_and_fractional_seeds_rejected(self, entry):
        for seed in (1.5, 2.5, True, np.bool_(True), float("nan"), float("inf"), -1):
            with pytest.raises(SpecError, match="seed"):
                self.ENTRY_POINTS[entry](seed)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_integral_floats_are_their_integers(self, entry):
        call = self.ENTRY_POINTS[entry]
        for seed in (3.0, np.float32(3.0), np.int64(3), np.uint64(3)):
            assert np.array_equal(call(seed), call(3))
        assert not np.array_equal(call(2), call(3))

    def test_tags_are_whole_numbers(self):
        for tag in (2.5, True, np.bool_(True), float("nan"), -1):
            with pytest.raises(SpecError, match="tag"):
                derive_seed(1, tag)
        for tag in (2.0, np.float32(2.0), np.int64(2), np.uint64(2)):
            assert derive_seed(1, tag, 7) == derive_seed(1, 2, 7)
        assert derive_seed(1, 3, 7) != derive_seed(1, 2, 7)

    def test_int_seeds_keep_their_draws(self):
        expected = np.random.default_rng(np.random.SeedSequence(2**70 + 5)).standard_normal(4)
        assert np.array_equal(rng_from_seed(2**70 + 5).standard_normal(4), expected)
        state = np.random.SeedSequence([11, 4, 7]).generate_state(1, dtype=np.uint64)[0]
        assert derive_seed(11, 4, 7) == int(state)


class TestSizes:
    """n and m are whole numbers at every entry point: a bool or a fraction
    is a DimensionError rather than the size int() would make of it or
    numpy's raw TypeError, an integral float is its integer, and an int
    keeps its draws."""

    # name -> (the call with one size varied, the int that size takes)
    ENTRY_POINTS = {
        "sample_input n": (lambda s: sample_input(InputDist.gaussian(1.0), s, 2, seed=1), 10),
        "sample_input m": (lambda s: sample_input(InputDist.gaussian(1.0), 10, s, seed=1), 2),
        "build_regressor n": (lambda s: build_regressor(np.arange(11.0), s, 2).entries, 10),
        "build_regressor m": (lambda s: build_regressor(np.arange(11.0), 10, s).entries, 2),
        "noise": (lambda s: sample_noise(NoiseSpec.gaussian(1.0, seed=1), s), 5),
        "outliers": (lambda s: sample_outliers(OutlierSpec.fixed(2, seed=1), s), 5),
        "concentration": (lambda s: concentration_diagnostic(
            s, 2, [0.6, 0.8], trials=2, seed=1).samples, 10),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bool_and_fractional_sizes_rejected(self, entry):
        call, size = self.ENTRY_POINTS[entry]
        name = "m" if entry.endswith(" m") else "n"
        for bad in (size + 0.5, True, np.bool_(True), float("nan"), float("inf")):
            with pytest.raises(DimensionError, match=f"{name} must be"):
                call(bad)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_integral_floats_are_their_integers(self, entry):
        call, size = self.ENTRY_POINTS[entry]
        for good in (float(size), np.float32(size), np.int64(size), np.uint64(size)):
            assert np.array_equal(call(good), call(size))

    def test_int_sizes_keep_their_draws(self):
        expected = np.random.default_rng(np.random.SeedSequence(1)).standard_normal(11)
        assert np.array_equal(sample_input(InputDist.gaussian(1.0), 10, 2, seed=1), expected)
        H = build_regressor(np.arange(11.0), 10, 2)
        assert (type(H.n), type(H.m)) == (int, int)


class TestComplexInput:
    """Every array the package casts to float is refused when its dtype is
    complex, rather than losing its imaginary part to the cast with only a
    ComplexWarning; the same call on the real part runs."""

    H = build_regressor(sample_input(InputDist.gaussian(1.0), 14, 2, seed=9), 14, 2).entries
    Y = H @ np.array([1.0, -0.5]) + np.arange(14.0) % 3
    # name -> (the call with one array complex or not, that array)
    ENTRY_POINTS = {
        "lad_estimate H": (lambda a: lad_estimate(a, TestComplexInput.Y), H),
        "lad_estimate y": (lambda a: lad_estimate(TestComplexInput.H, a), Y),
        "ls_estimate H": (lambda a: ls_estimate(a, TestComplexInput.Y), H),
        "ls_estimate y": (lambda a: ls_estimate(TestComplexInput.H, a), Y),
        "certify_support_exact H": (lambda a: certify_support_exact(a, [0]), H),
        "certify_support_mc H": (lambda a: certify_support_mc(a, [0], trials=100, seed=1), H),
        "empirical_recovery_rate H": (lambda a: empirical_recovery_rate(
            a, [0], trials=2, magnitude=Magnitude(100.0, 50.0), seed=1), H),
        "balance_gap H": (lambda a: balance_gap(a, [0], [0.6, 0.8]), H),
        "balance_gap z": (lambda a: balance_gap(TestComplexInput.H, [0], a),
                          np.array([0.6, 0.8])),
        "concentration_diagnostic z": (lambda a: concentration_diagnostic(
            14, 2, a, trials=2, seed=1), np.array([0.6, 0.8])),
        "build_regressor h": (lambda a: build_regressor(a, 10, 3), np.arange(12.0)),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_complex_array_rejected(self, entry):
        call, real = self.ENTRY_POINTS[entry]
        name = entry.split()[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(real)
            for bad in (real + 1j, real.astype(complex), real.astype(np.complex64)):
                with pytest.raises(DimensionError, match=f"{name} must be real"):
                    call(bad)
