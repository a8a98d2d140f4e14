import csv
import hashlib
import itertools
import warnings

import numpy as np
import pytest

from ladsysid import (DimensionError, InputDist, SingularSystemError,
                      build_regressor, consistency_scenario, derive_seed,
                      fir_scenario, lad_estimate, ls_estimate, run_experiment,
                      sample_input, scenario_table1)
import ladsysid.harness
import ladsysid.solver
from ladsysid.harness import _draw_trial, config_from_dict
from ladsysid.solver import _certify_vertex, _leaving_index
from oracles import (NOISELESS_PM1, highs_box_feasible, highs_lad_objective,
                     vertex_check_lp_only)


def lad_bruteforce_objective(H, y):
    """Oracle: optimum over all vertices interpolating m observations."""
    n, m = H.shape
    best = np.inf
    for rows in itertools.combinations(range(n), m):
        sub = H[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, y[list(rows)])
        best = min(best, float(np.abs(y - H @ x).sum()))
    return best


def random_instance(rng, n_max=8, m_max=2):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    m = min(m, n)
    return rng.standard_normal((n, m)), rng.standard_normal(n)


def count_vertex_lps(monkeypatch):
    """Wrap ``solver.solve_lp``; the returned list grows by one per LP run."""
    calls = []
    inner = ladsysid.solver.solve_lp

    def counted(*args):
        calls.append(1)
        return inner(*args)
    monkeypatch.setattr(ladsysid.solver, "solve_lp", counted)
    return calls


def routed_check(lps, A, zero_mask, grad_nz):
    """``_certify_vertex``'s verdict and the route that decided it: ``lp`` when
    it ran the LP (counted in ``lps``), else ``witness`` or ``separator``."""
    before = len(lps)
    got = _certify_vertex(A, zero_mask, grad_nz)
    return got, "lp" if len(lps) > before else "witness" if got else "separator"


def band_routes(monkeypatch):
    """Wrap ``solver._band_stage``; the returned list gets each call's route:
    ``accepted``, or the reason the stage declined."""
    routes = []
    inner = ladsysid.solver._band_stage

    def recorded(*args):
        fit = inner(*args)
        routes.append(fit if isinstance(fit, str) else "accepted")
        return fit
    monkeypatch.setattr(ladsysid.solver, "_band_stage", recorded)
    return routes


def full_simplex(monkeypatch, H, y):
    """``lad_estimate`` with the band stage declining, so the full simplex runs
    from the geqp3 basis of all n rows."""
    with monkeypatch.context() as patched:
        patched.setattr(ladsysid.solver, "_band_stage", lambda *args: "disabled")
        return lad_estimate(H, y)


def gauss_toeplitz(n, m, seed, sigma=1.0):
    return build_regressor(sample_input(InputDist.gaussian(sigma), n, m, seed), n, m)


def walk_leaving_index(t, abs_hd, slope, bland, ztol):
    """Reference ratio test: a stable argsort of every breakpoint, then a walk
    over them (the selection-free form of ``solver._leaving_index``)."""
    rows = np.arange(t.size)
    if bland:
        t_min = float(t.min())
        return int(rows[t <= t_min + ztol].min())
    order = np.argsort(t, kind="stable")
    for i in order:
        slope += 2.0 * abs_hd[i]
        if slope >= -1e-12:
            return int(i)
    return int(order[-1])


class TestTable1Golden:
    def test_ls_clean(self):
        tab = scenario_table1()
        est = ls_estimate(tab.regressor(), tab.y_clean)
        assert np.allclose(est.x_hat, [0.1958, 0.2286], atol=1e-3)

    def test_ls_with_outlier(self):
        tab = scenario_table1()
        est = ls_estimate(tab.regressor(), tab.y_outlier)
        assert np.allclose(est.x_hat, [0.6503, -1.1351], atol=1e-3)

    def test_lad_with_outlier(self):
        tab = scenario_table1()
        est = lad_estimate(tab.regressor(), tab.y_outlier)
        assert est.status == "optimal"
        assert np.allclose(est.x_hat, [0.2109, 0.1955], atol=5e-3)


class TestLadCorrectness:
    def test_interpolating_optimum(self):
        H = gauss_toeplitz(40, 3, seed=1)
        x = np.array([0.5, -1.0, 2.0])
        est = lad_estimate(H, H.entries @ x)
        assert est.status == "optimal"
        assert np.allclose(est.x_hat, x, atol=1e-10)
        assert est.objective == pytest.approx(0.0, abs=1e-9)

    def test_six_by_two_matches_vertex_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            H = rng.standard_normal((6, 2))
            y = rng.standard_normal(6)
            est = lad_estimate(H, y)
            assert est.status == "optimal"
            assert est.objective == pytest.approx(
                lad_bruteforce_objective(H, y), rel=1e-8, abs=1e-12)

    def test_random_small_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            H, y = random_instance(rng)
            est = lad_estimate(H, y)
            assert est.status == "optimal"
            assert est.objective == pytest.approx(
                lad_bruteforce_objective(H, y), rel=1e-8, abs=1e-12)

    def test_tie_prone_integer_instances(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 150:
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, 3))
            H = rng.integers(-2, 3, size=(n, m)).astype(float)
            y = rng.integers(-3, 4, size=n).astype(float)
            if np.linalg.matrix_rank(H) < m:
                continue
            checked += 1
            est = lad_estimate(H, y)
            assert est.status == "optimal"
            assert est.objective == pytest.approx(
                lad_bruteforce_objective(H, y), rel=1e-8, abs=1e-9)

    def test_massively_degenerate_outlier_instance(self):
        H = gauss_toeplitz(300, 4, seed=21)
        rng = np.random.default_rng(22)
        x = rng.standard_normal(4)
        e = np.zeros(300)
        support = rng.choice(300, size=150, replace=False)
        e[support] = rng.normal(100.0, 50.0, size=150)
        est = lad_estimate(H, H.entries @ x + e)
        assert est.status == "optimal"
        assert np.linalg.norm(est.x_hat - x) <= 1e-6 * np.linalg.norm(x)
        assert est.objective == pytest.approx(np.abs(e).sum(), rel=1e-10)


class TestLeavingRowSelection:
    """``_leaving_index`` picks the same row as the full sort and walk."""

    @staticmethod
    def check(t, abs_hd, slope, bland=False, ztol=1e-9):
        got = _leaving_index(t, np.arange(t.size), abs_hd, slope, bland, ztol)[0]
        assert got == walk_leaving_index(t, abs_hd, slope, bland, ztol)
        return got

    @staticmethod
    def random_case(rng):
        size = int(np.exp(rng.uniform(0.0, np.log(3000.0))))
        abs_hd = rng.exponential(size=size)
        # stop anywhere along the walk, or (frac > 1) never
        slope = -rng.uniform(0.0, 1.1) * 2.0 * float(abs_hd.sum())
        return size, abs_hd, slope

    def test_random_breakpoints(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            size, abs_hd, slope = self.random_case(rng)
            self.check(rng.exponential(size=size), abs_hd, slope)

    def test_exact_ties_and_zero_blocking_rows(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            size, abs_hd, slope = self.random_case(rng)
            t = rng.integers(0, 1 + int(rng.integers(1, 20)), size=size).astype(float)
            t[rng.random(size) < rng.uniform(0.0, 0.9)] = 0.0   # blocking rows
            self.check(t, abs_hd, slope)

    def test_slope_never_turns_returns_last_row(self):
        rng = np.random.default_rng(33)
        for size in (1, 2, 127, 128, 129, 600, 5000):
            t = rng.integers(0, 50, size=size).astype(float)
            abs_hd = rng.exponential(size=size)
            slope = -2.0 * float(abs_hd.sum()) - 1.0
            last = max(np.flatnonzero(t == t.max()))   # largest t, then largest row
            assert self.check(t, abs_hd, slope) == last

    def test_slope_within_1e12_of_zero_stops(self):
        t = np.array([3.0, 1.0, 2.0])
        abs_hd = np.array([1.0, 0.5, 0.25])
        # rows 1 and 2 raise the slope by 1.5; every sum below is exact
        assert self.check(t, abs_hd, -1.5) == 2
        assert self.check(t, abs_hd, -1.5 - 2.0**-42) == 2    # ends at -2.3e-13
        assert self.check(t, abs_hd, -1.5 - 2.0**-36) == 0    # ends at -1.5e-11

    def test_single_candidate(self):
        for slope in (-0.5, -10.0):
            assert self.check(np.array([0.7]), np.array([1.0]), slope) == 0
        assert self.check(np.array([0.7]), np.array([1.0]), -1.0, bland=True) == 0

    def test_bland_takes_smallest_row_within_ztol_of_first_breakpoint(self):
        t = np.array([0.5, 0.2 + 5e-10, 0.2, 0.2 + 2e-9, 0.1 + 1.0])
        assert self.check(t, np.ones(5), -1.0, bland=True, ztol=1e-9) == 1
        rng = np.random.default_rng(34)
        for _ in range(1000):
            size, abs_hd, slope = self.random_case(rng)
            t = rng.integers(0, 4, size=size) * 1e-9 + rng.integers(0, 3, size=size)
            self.check(t, abs_hd, slope, bland=True, ztol=float(rng.choice([0.0, 1e-9, 3e-9])))

    # Beyond 2 * _SAMPLE candidates the walk covers sampled prefixes {t <= T}

    @staticmethod
    def prefix_rounds(monkeypatch):
        rounds = []
        bound = ladsysid.solver._prefix_bound

        def counted(*args):
            rounds.append(1)
            return bound(*args)
        monkeypatch.setattr(ladsysid.solver, "_prefix_bound", counted)
        return rounds

    def test_large_candidate_sets(self):
        rng = np.random.default_rng(35)
        for size in (1024, 1025, 1500, 4000, 12000, 30000):
            for _ in range(4):
                abs_hd = rng.exponential(size=size)
                slope = -rng.uniform(0.0, 1.0) ** 3 * 2.0 * float(abs_hd.sum())
                self.check(rng.exponential(size=size), abs_hd, slope)

    def test_stops_several_continuation_rounds_deep(self, monkeypatch):
        # breakpoints rising with the row and the weight on every period-th row,
        # period near the sampling stride: the sample misjudges the rise, and
        # the walk goes on from the last slope of each prefix
        rounds = self.prefix_rounds(monkeypatch)
        rng = np.random.default_rng(36)
        deepest = 0
        for case in range(24):
            size = 30000 if case % 2 else int(rng.integers(2000, 30000))
            t = np.sort(rng.exponential(size=size))
            if case % 3 == 0:
                t = np.round(t * 20.0) / 20.0
            period = size // 512 + int(rng.integers(-1, 2))
            abs_hd = np.where(np.arange(size) % period == 0, 1.0, 1e-4)
            slope = -rng.uniform(0.05, 1.05) * 2.0 * float(abs_hd.sum())
            rounds.clear()
            self.check(t, abs_hd, slope)
            deepest = max(deepest, len(rounds))
        assert deepest >= 3

    def test_large_exact_ties_straddle_sample_points(self, monkeypatch):
        rounds = self.prefix_rounds(monkeypatch)
        rng = np.random.default_rng(37)
        for size in (1100, 5000, 30000):
            for levels in (3, 40, 1000):
                t = rng.integers(0, levels, size=size).astype(float)
                t[rng.random(size) < 0.3] = 0.0     # blocking rows
                abs_hd = rng.exponential(size=size)
                slope = -rng.uniform(0.0, 1.0) * 2.0 * float(abs_hd.sum())
                self.check(t, abs_hd, slope)
        assert rounds

    def test_large_slope_never_turns_returns_last_row(self):
        rng = np.random.default_rng(38)
        for size in (1025, 2048, 30000):
            t = rng.integers(0, 500, size=size).astype(float)
            abs_hd = rng.exponential(size=size)
            slope = -2.0 * float(abs_hd.sum()) - 1.0
            last = max(np.flatnonzero(t == t.max()))
            assert self.check(t, abs_hd, slope) == last


class TestLargeN:
    """Three n=3000 consistency trials; iterations and x_hat bytes are frozen
    from the ratio test as it stood with a full stable argsort per pivot."""

    FROZEN = [
        (23, "fce60826e67317f534ca0511720141a82ffef5999cdb2987872c54c70a98a3bb"),
        (21, "76dfa0b647036d7b8aba7afd31a99e23852a9763af61463a9c4f5976bf32891b"),
        (26, "7a6fc1cb01431b0f3501ba2e3cd090e60ccf2da4e686d0d72e4c193580a5092a"),
    ]

    @pytest.mark.parametrize("trial", range(3))
    def test_consistency_gaussian_n3000(self, trial):
        H, x, e, w = _draw_trial(consistency_scenario("gaussian", 3000),
                                 derive_seed(0, 0, trial))
        y = H.entries @ x + e + w
        est = lad_estimate(H, y)
        assert est.status == "optimal"
        assert est.objective == pytest.approx(highs_lad_objective(H, y), rel=1e-9)
        iterations, digest = self.FROZEN[trial]
        assert est.iterations == iterations
        assert hashlib.sha256(est.x_hat.tobytes()).hexdigest() == digest

    def test_consistency_gaussian_n30000(self, monkeypatch):
        # frozen from the full simplex with a partition-selected ratio test
        # prefix and one LAPACK geqp3 call (the pivoted QR of scipy.linalg.qr)
        # for the initial basis.  The band stage declines on this trial (a
        # folded row changes sign), so the public path is that simplex too.
        H, x, e, w = _draw_trial(consistency_scenario("gaussian", 30000), derive_seed(0, 0, 0))
        y = H.entries @ x + e + w
        digest = "87bdd6c12ea82e1ad536982c5135d3274ff146ace076d515455a2bb54ffaea0a"
        full = full_simplex(monkeypatch, H, y)
        assert full.iterations == 27
        assert hashlib.sha256(full.x_hat.tobytes()).hexdigest() == digest
        routes = band_routes(monkeypatch)
        est = lad_estimate(H, y)
        assert routes == ["sign flip"]
        assert est.status == "optimal"
        assert est.objective == pytest.approx(highs_lad_objective(H, y), rel=1e-9)
        assert est.iterations == 27
        assert hashlib.sha256(est.x_hat.tobytes()).hexdigest() == digest

    def test_consistency_gaussian_n30000_band_route(self, monkeypatch):
        # the next trial takes the band route: its pivots are the subsample's
        # and the band's, and x_hat is the full simplex's (frozen from it)
        H, x, e, w = _draw_trial(consistency_scenario("gaussian", 30000), derive_seed(0, 0, 1))
        y = H.entries @ x + e + w
        digest = "925d62250fae0bb0d1fdc154ec32156a40014786137b0e6cbebc6abb26e45b66"
        full = full_simplex(monkeypatch, H, y)
        assert full.iterations == 34
        assert hashlib.sha256(full.x_hat.tobytes()).hexdigest() == digest
        routes = band_routes(monkeypatch)
        est = lad_estimate(H, y)
        assert routes == ["accepted"]
        assert est.status == "optimal"
        assert est.iterations == 42
        assert hashlib.sha256(est.x_hat.tobytes()).hexdigest() == digest


def preset_trial(kind, n, trial):
    """Trial ``trial`` of a consistency preset or of ``fir`` at size n."""
    scenario = fir_scenario(n) if kind == "fir" else consistency_scenario(kind, n)
    H, x, e, w = _draw_trial(scenario, derive_seed(0, 0, trial))
    return H, H.entries @ x + e + w


def outlier_trial(dist, n, noise_sd, seed=0):
    """m=5 Toeplitz regressor of ``dist`` input, noise of sd ``noise_sd`` and
    N(0, 10^2) outliers on a tenth of the rows."""
    rng = np.random.default_rng(seed)
    H = build_regressor(sample_input(dist, n, 5, seed), n, 5).entries
    y = H @ rng.standard_normal(5) + noise_sd * rng.standard_normal(n)
    rows = rng.choice(n, n // 10, replace=False)
    y[rows] += rng.normal(0.0, 10.0, rows.size)
    return H, y


def unbounded_band(n):
    """The subsample's rows follow another model than the rest: the folded
    rows' fixed-sign gradient then outweighs every band row."""
    rng = np.random.default_rng(0)
    H = rng.standard_normal((n, 5))
    y = H @ rng.standard_normal(5) + rng.standard_normal(n)
    rows = ladsysid.solver._subsample_rows(n, 5)
    y[rows] += H[rows] @ np.ones(5)
    return H, y


def odd_lead(n):
    """Noisy +-1 input but for one 1.5 in the subsample's first column, so
    the stage fits the subsample; its optimum still has a dual at +-1."""
    H, y = outlier_trial(InputDist.bernoulli_pm1(), n, 1.0)
    H = H.copy()
    H[ladsysid.solver._subsample_rows(n, 5)[0], 0] = 1.5
    return H, y


def singular_subsample(n):
    """The last column is zero except on rows 1-5, which the subsample skips
    (it takes row 0 and then every 9th row or sparser), so only the
    subsample is rank deficient."""
    rng = np.random.default_rng(1)
    H = rng.standard_normal((n, 5))
    H[:, -1] = 0.0
    H[1:6, -1] = rng.standard_normal(5)
    return H, H @ rng.standard_normal(5) + rng.standard_normal(n)


class TestBandStage:
    """Large-n LAD runs ``_band_stage`` first.  Whichever route it takes, the
    estimate must be the full simplex's to the last bit; each route fires on
    one of these inputs."""

    CASES = {
        "gaussian-10000": (lambda: preset_trial("gaussian", 10000, 0), "sign flip"),
        "gaussian-30000": (lambda: preset_trial("gaussian", 30000, 2), "accepted"),
        "gamma-10000": (lambda: preset_trial("gamma", 10000, 0), "accepted"),
        "gamma-30000": (lambda: preset_trial("gamma", 30000, 0), "accepted"),
        "exponential-10000": (lambda: preset_trial("exponential", 10000, 0), "accepted"),
        "exponential-30000": (lambda: preset_trial("exponential", 30000, 0), "accepted"),
        "fir-10000": (lambda: preset_trial("fir", 10000, 0), "accepted"),
        "fir-30000": (lambda: preset_trial("fir", 30000, 0), "accepted"),
        "noisy-pm1-10000": (lambda: outlier_trial(InputDist.bernoulli_pm1(), 10000, 1.0),
                            "one magnitude"),
        "pm1-odd-lead-10000": (lambda: odd_lead(10000), "subsample non-strict"),
        "noiseless-gaussian-10000": (lambda: outlier_trial(InputDist.gaussian(1.0), 10000, 0.0),
                                     "subsample degenerate"),
        "noiseless-pm1-10000": (lambda: outlier_trial(InputDist.bernoulli_pm1(), 10000, 0.0),
                                "one magnitude"),
        "unbounded-band-10000": (lambda: unbounded_band(10000), "band degenerate_fallback"),
        "singular-subsample-10000": (lambda: singular_subsample(10000), "SingularSystemError"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bit_identical_to_full_simplex(self, monkeypatch, case):
        draw, route = self.CASES[case]
        H, y = draw()
        full = full_simplex(monkeypatch, H, y)
        routes = band_routes(monkeypatch)
        est = lad_estimate(H, y)
        assert routes == [route]
        assert est.x_hat.tobytes() == full.x_hat.tobytes()
        assert est.residuals.tobytes() == full.residuals.tobytes()
        assert est.objective == full.objective
        assert est.status == full.status == "optimal"
        if route != "accepted":
            assert est.iterations == full.iterations

    @pytest.mark.parametrize("n,noise_sd,seed", [(10000, 1.0, 2), (30000, 1.0, 3),
                                              (30000, 0.0, 1)])
    def test_one_magnitude_declines_before_the_subsample_solve(self, monkeypatch, n,
                                                                noise_sd, seed):
        # +-1 PRBS input: the full simplex is the only solve, and its bytes
        # are the estimate's
        H, y = outlier_trial(InputDist.bernoulli_pm1(), n, noise_sd, seed)
        full = full_simplex(monkeypatch, H, y)
        routes = band_routes(monkeypatch)
        solves = []
        simplex = ladsysid.solver._simplex

        def recorded(A, *args, **kwargs):
            solves.append(A.shape[0])
            return simplex(A, *args, **kwargs)
        monkeypatch.setattr(ladsysid.solver, "_simplex", recorded)
        est = lad_estimate(H, y)
        assert routes == ["one magnitude"]
        assert solves == [n]
        assert est.x_hat.tobytes() == full.x_hat.tobytes()
        assert est.residuals.tobytes() == full.residuals.tobytes()
        assert (est.objective, est.status, est.iterations) == (
            full.objective, full.status, full.iterations)

    def test_engages_from_n_about_8150_at_m5(self):
        # the band, 3 ceil(sqrt(5) n^(2/3)) rows, must be at most n / 3
        assert ladsysid.solver._subsample_rows(8150, 5) is None
        assert ladsysid.solver._subsample_rows(8200, 5).size == 910


class TestNoiselessSweepGolden:
    """A tiny noiseless +-1 sweep (m=5, n 40 and 100, 5 trials each, seed 1):
    its degenerate optima go through the vertex certificate.  The trial-CSV
    sha256 without ``wall_ms``, the LAD iterations and the vertex-check count
    are frozen from the solver as it stood with one np.linalg.solve per system."""

    CSV_SHA256 = "c7f9edb2632e68eb0cc96cd17232d0e063e2a557c784a71f04e364e1333a6fb7"
    ITERATIONS = [24, 17, 26, 26, 26, 1, 1, 13, 26, 26]
    VERTEX_CHECKS = (15, 7)    # calls, certified

    def test_csv_iterations_and_vertex_checks_frozen(self, monkeypatch, tmp_path):
        iterations, verdicts = [], []
        lad, check = ladsysid.solver.lad_estimate, ladsysid.solver._certify_vertex

        def recorded_lad(H, y):
            est = lad(H, y)
            iterations.append(est.iterations)
            return est

        def recorded_check(*args):
            verdicts.append(check(*args))
            return verdicts[-1]
        monkeypatch.setitem(ladsysid.harness._ESTIMATORS, "lad", recorded_lad)
        monkeypatch.setattr(ladsysid.solver, "_certify_vertex", recorded_check)
        out = tmp_path / "trials.csv"
        run_experiment(config_from_dict({"scenario": NOISELESS_PM1, "n_grid": [40, 100],
                                         "trials_per_point": 5, "master_seed": 1,
                                         "out": str(out)}))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_ms")
        text = "\n".join(",".join(c for i, c in enumerate(r) if i != drop) for r in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == self.CSV_SHA256
        assert iterations == self.ITERATIONS
        assert (len(verdicts), sum(verdicts)) == self.VERTEX_CHECKS


class TestVertexCertificate:
    """``_certify_vertex`` on the degenerate vertices that LAD meets in noiseless
    +-1 PRBS sweeps (m=5, up to 80% outliers of sd 10, n 40-600)."""

    @staticmethod
    def vertex_checks(monkeypatch, n, trials):
        scen = config_from_dict({"scenario": {
            "m": 5, "input": {"kind": "bernoulli_pm1"}, "noise": {"kind": "none"},
            "outliers": {"count_model": "uniform_fraction", "max_fraction": 0.8,
                         "mean": 0.0, "sd": 10.0}}, "n_grid": [n]}).scenarios[0]
        calls = []
        inner = ladsysid.solver._certify_vertex

        def recorded(A, zero_mask, grad_nz):
            calls.append((A, zero_mask.copy(), grad_nz.copy()))
            return inner(A, zero_mask, grad_nz)
        monkeypatch.setattr(ladsysid.solver, "_certify_vertex", recorded)
        for t in range(trials):
            H, x, e, w = _draw_trial(scen, derive_seed(7, n, t))
            lad_estimate(H, H.entries @ x + e + w)
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("n,trials", [(40, 40), (100, 24), (250, 12), (600, 6)])
    def test_verdicts_match_highs(self, monkeypatch, n, trials):
        calls = self.vertex_checks(monkeypatch, n, trials)
        lps = count_vertex_lps(monkeypatch)
        verdicts, routes = [], set()
        for A, zero_mask, grad_nz in calls:
            got, route = routed_check(lps, A, zero_mask, grad_nz)
            assert got == vertex_check_lp_only(A, zero_mask, grad_nz)
            assert got == highs_box_feasible(A[zero_mask].T, -grad_nz, (-1.0, 1.0))
            verdicts.append(got)
            routes.add(route)
        assert any(verdicts) and not all(verdicts)
        assert {"witness", "separator"} <= routes

    def test_every_route_decides_some_vertex(self, monkeypatch):
        # at n = 100 trials 8 and 10 each leave one check to the LP (found by
        # counting the LP calls of every trial at the four sizes above)
        calls = self.vertex_checks(monkeypatch, 100, 24)
        lps = count_vertex_lps(monkeypatch)
        routes = [routed_check(lps, *call)[1] for call in calls]
        assert set(routes) == {"witness", "separator", "lp"}

    def test_noisy_solves_run_no_check(self, monkeypatch):
        # off the basis no residual of a noisy instance is zero, so no vertex
        # is degenerate and the check never runs
        calls = []
        monkeypatch.setattr(ladsysid.solver, "_certify_vertex",
                            lambda *args: calls.append(1) or False)
        for t in range(4):
            H, x, e, w = _draw_trial(consistency_scenario("gaussian", 300), derive_seed(2, 0, t))
            assert lad_estimate(H, H.entries @ x + e + w).status == "optimal"
        assert calls == []

    def test_all_rows_zero_is_certified(self):
        # y = Hx exactly: every residual vanishes and the gradient is empty
        A = gauss_toeplitz(30, 3, seed=4).entries
        assert _certify_vertex(A, np.ones(30, dtype=bool), np.zeros(3))


class TestVertexCheckMargin:
    """The Gram witness and separator where they come closest to a wrong
    answer: the least-norm w on the box boundary, problems infeasible by less
    than the acceptance tolerances, and a singular Gram matrix.  The verdict
    must be the LP-only check's every time."""

    DELTAS = [-1e-6, -1e-12, 0.0, 1e-15, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8,
              3e-8, 1e-7, 1e-6]

    @staticmethod
    def boundary_instance(rng, kind, delta):
        """(At, target) whose least-norm solution is (1 + delta) w0, max|w0| = 1.

        ``signs``: w0 is a sign vector s and At's first row a multiple of s, so
        every entry sits on the boundary; for delta > 0, v = e_1 shows the
        problem infeasible, by less than the 1e-9 box allowance up to
        delta = 1e-9.  ``partial``: w0 = At'c rescaled, one entry on the
        boundary and the rest inside."""
        m = int(rng.integers(2, 7))
        p = int(rng.integers(m + 1, 40))
        At = rng.standard_normal((m, p))
        if kind == "signs":
            w0 = rng.choice([-1.0, 1.0], size=p)
            At[0] = w0 * rng.uniform(0.5, 2.0)
        else:
            w0 = At.T @ rng.standard_normal(m)
            w0 /= np.abs(w0).max()
        return At, (1.0 + delta) * (At @ w0)

    @pytest.mark.parametrize("kind", ["signs", "partial"])
    def test_boundary_and_tolerance_infeasible_match_lp_only(self, monkeypatch, kind):
        rng = np.random.default_rng(31)
        lps = count_vertex_lps(monkeypatch)
        routes = set()
        for delta in self.DELTAS:
            for _ in range(20):
                At, target = self.boundary_instance(rng, kind, delta)
                A, zero_mask = At.T.copy(), np.ones(At.shape[1], dtype=bool)
                got, route = routed_check(lps, A, zero_mask, -target)
                assert got == vertex_check_lp_only(A, zero_mask, -target), (delta, route)
                if delta <= 0.0:
                    assert got
                if delta <= 1e-9:
                    # w0 itself passes the acceptance test
                    assert route != "separator"
                routes.add(route)
        assert routes == ({"witness", "separator", "lp"} if kind == "signs"
                          else {"witness", "lp"})

    @pytest.mark.parametrize("miss", [1.0 - 1e-6, 1.0])
    def test_separator_spares_a_point_at_both_allowances(self, monkeypatch, miss):
        # At's first row is a sign vector s and every row's largest entry is 1,
        # so the check scales no row.  w' = (1 + 1e-9) s misses the target by
        # miss * 1e-8 * scale, in the first row only: it passes the acceptance
        # test with both allowances used up, so the separator, whose v is close
        # to e_1 here, sits at its bound and must not answer.  At miss = 1 it
        # sits there to within rounding: without its rounding term the
        # separator answered no on about 4% of these instances
        rng = np.random.default_rng(32)
        lps = count_vertex_lps(monkeypatch)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            p = int(rng.integers(m + 1, 40))
            At = rng.uniform(-1.0, 1.0, size=(m, p))
            At[0] = rng.choice([-1.0, 1.0], size=p)
            At[:, 0] = 1.0
            w_edge = (1.0 + 1e-9) * At[0]
            target = At @ w_edge
            target[0] += miss * 1e-8 * np.abs(target).max()
            assert np.abs(w_edge).max() <= 1.0 + 1e-9
            assert np.abs(At @ w_edge - target).max() <= 1e-8 * np.abs(target).max()
            A, zero_mask = At.T.copy(), np.ones(p, dtype=bool)
            got, route = routed_check(lps, A, zero_mask, -target)
            assert route != "separator"
            assert got == vertex_check_lp_only(A, zero_mask, -target)

    @pytest.mark.parametrize("perturb", [0.0, 2.0 ** -40])
    def test_singular_gram_goes_to_the_lp_without_warnings(self, monkeypatch, perturb):
        # the second row is the first, doubled (equal once rows are scaled) or
        # perturbed in its last entry: the Gram matrix is singular or nearly so
        At = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0 + perturb],
                       [0.5, -1.0, 0.25, 1.0]])
        lps = count_vertex_lps(monkeypatch)
        verdicts = []
        for w0 in ([0.5, -0.25, 0.0, 0.75], [1.0, 1.0, 1.0, 1.0], [3.0, 0.0, 0.0, 0.0],
                   [1.0, 1.0, 1.0, 1.5]):
            grad_nz = -(At @ np.array(w0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, route = routed_check(lps, At.T.copy(), np.ones(4, dtype=bool), grad_nz)
            assert route == "lp"
            assert got == vertex_check_lp_only(At.T, np.ones(4, dtype=bool), grad_nz)
            verdicts.append(got)
        assert verdicts == [True, True, True, False]


class TestEstimateInvariants:
    def test_objective_equals_residual_norms(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            H, y = random_instance(rng, n_max=15, m_max=3)
            lad = lad_estimate(H, y)
            assert lad.objective == pytest.approx(
                np.abs(lad.residuals).sum(), rel=1e-10, abs=1e-14)
            ls = ls_estimate(H, y)
            assert ls.objective == pytest.approx(
                np.linalg.norm(ls.residuals), rel=1e-10, abs=1e-14)

    def test_lad_vertex_has_m_zero_residuals(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            H, y = random_instance(rng, n_max=20, m_max=4)
            est = lad_estimate(H, y)
            scale = max(1.0, np.abs(y).max())
            assert (np.abs(est.residuals) <= 1e-9 * scale).sum() >= H.shape[1]

    def test_subgradient_optimality_certificate(self):
        # one-sided directional derivatives along +/- each coordinate are
        # nonnegative at the optimum (up to tolerance at the data's scale)
        rng = np.random.default_rng(7)
        for _ in range(40):
            H, y = random_instance(rng, n_max=15, m_max=3)
            est = lad_estimate(H, y)
            scale = np.abs(H).sum(axis=0).max()
            r = est.residuals
            zero = np.abs(r) <= 1e-9 * max(1.0, np.abs(y).max())
            for j in range(H.shape[1]):
                for s in (1.0, -1.0):
                    hd = s * H[:, j]
                    deriv = (np.abs(hd[zero]).sum()
                             - np.sum(np.sign(r[~zero]) * hd[~zero]))
                    assert deriv >= -1e-8 * scale

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            H, y = random_instance(rng, n_max=12, m_max=3)
            base = lad_estimate(H, y)
            for c in (2.0, 17.5):
                scaled = lad_estimate(H, c * y)
                assert np.allclose(scaled.x_hat, c * base.x_hat,
                                   rtol=1e-9, atol=1e-9)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            H, y = random_instance(rng, n_max=12, m_max=3)
            v = rng.standard_normal(H.shape[1])
            base = lad_estimate(H, y)
            shifted = lad_estimate(H, y + H @ v)
            assert np.allclose(shifted.x_hat, base.x_hat + v,
                               rtol=1e-8, atol=1e-8)

    def test_outlier_insensitivity_on_certified_support(self):
        from ladsysid import certify_support_exact
        H = gauss_toeplitz(14, 2, seed=10)
        K = [2, 9]
        cert = certify_support_exact(H, K)
        assert cert.verdict == "certified"
        rng = np.random.default_rng(11)
        x = rng.standard_normal(2)
        e = np.zeros(14)
        e[K] = [55.0, -17.0]
        est = lad_estimate(H, H.entries @ x + e)
        assert np.allclose(est.x_hat, x, rtol=1e-9, atol=1e-11)
        assert est.objective == pytest.approx(np.abs(e).sum(), rel=1e-10)


class TestErrors:
    def test_rank_deficient_lad(self):
        H = np.ones((5, 2))
        with pytest.raises(SingularSystemError):
            lad_estimate(H, np.arange(5.0))

    def test_rank_deficient_ls(self):
        H = np.column_stack([np.arange(5.0), 2 * np.arange(5.0)])
        with pytest.raises(SingularSystemError):
            ls_estimate(H, np.arange(5.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            lad_estimate(np.eye(3), np.zeros(4))
        with pytest.raises(DimensionError):
            ls_estimate(np.eye(3), np.zeros(4))

    def test_underdetermined(self):
        with pytest.raises(DimensionError):
            lad_estimate(np.ones((1, 2)), np.zeros(1))

    @pytest.mark.parametrize("where,value", [("y", np.nan), ("y", np.inf), ("y", -np.inf),
                                             ("H", np.nan), ("H", np.inf)])
    @pytest.mark.parametrize("estimator", [lad_estimate, ls_estimate])
    def test_non_finite_input(self, estimator, where, value):
        H = np.array(gauss_toeplitz(40, 3, seed=15).entries)
        y = H @ np.ones(3)
        (y if where == "y" else H)[7] = value
        with pytest.raises(DimensionError, match="finite"):
            estimator(H, y)

    def test_iteration_limit_status(self):
        H = gauss_toeplitz(50, 3, seed=12)
        y = np.asarray(H.entries @ np.ones(3) + np.arange(50) % 7)
        est = lad_estimate(H, y, max_iter=1)
        assert est.status == "iteration_limit"
        assert est.x_hat.shape == (3,)


class TestSmallScale:
    """y scaled far below 1: the zero tolerance follows max|y| with no floor at 1,
    so a solve that reports ``optimal`` is optimal.  HiGHS's tolerances are
    absolute, so it solves y / max|y| and its optimum is scaled back."""

    @pytest.mark.parametrize("scale", [1e-6, 1e-8])
    def test_optimal_matches_highs_on_normalized_data(self, scale):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            H = gauss_toeplitz(120, 4, seed).entries
            y = H @ rng.standard_normal(4) + 0.1 * rng.standard_normal(120)
            y[rng.choice(120, 20, replace=False)] += 10.0 * rng.standard_normal(20)
            y *= scale
            top = float(np.abs(y).max())
            est = lad_estimate(H, y)
            assert est.status == "optimal"
            assert est.objective == pytest.approx(highs_lad_objective(H, y / top) * top,
                                                  rel=1e-9)


def toeplitz_instance(kind, n, m, seed, noise):
    """A Toeplitz LAD instance with n // 4 outliers: Gaussian, +-1 or quantized
    (steps of 1/4) input, with or without Gaussian noise of sd 0.1."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        u = rng.standard_normal(n + m - 1)
    elif kind == "pm1":
        u = rng.choice([-1.0, 1.0], size=n + m - 1)
    else:
        u = np.round(4.0 * rng.standard_normal(n + m - 1)) / 4.0
    H = build_regressor(u, n, m).entries
    y = H @ rng.standard_normal(m)
    if noise:
        y += 0.1 * rng.standard_normal(n)
    y[rng.choice(n, n // 4, replace=False)] += 10.0 * rng.standard_normal(n // 4)
    return H, y


INSTANCE_KINDS = [(kind, noise) for kind in ("gaussian", "pm1", "quantized")
                  for noise in (False, True)]


class TestPowerOfTwoScaling:
    """Rescaling y or a column of H by a power of two is exact in floating
    point, so LAD must follow it exactly: the same pivots, x_hat and objective
    scaled bit for bit, and ``optimal`` only at the optimum."""

    @pytest.mark.parametrize("kind,noise", INSTANCE_KINDS)
    def test_y_scaling_is_exact(self, kind, noise):
        for seed in range(6):
            H, y = toeplitz_instance(kind, 60 + 20 * seed, 2 + seed % 4, seed, noise)
            base = lad_estimate(H, y)
            for k in (20, -20, 40, -40):
                est = lad_estimate(H, np.ldexp(y, k))
                assert (est.status, est.iterations) == (base.status, base.iterations)
                assert est.x_hat.tobytes() == np.ldexp(base.x_hat, k).tobytes()
                assert est.objective == np.ldexp(base.objective, k)

    @pytest.mark.parametrize("kind", ["pm1", "quantized"])
    def test_column_scaling_matches_highs(self, kind):
        # the LAD optimum does not move when columns of H are rescaled; the
        # vertex certificate's rows are normalized, so a column scaled by
        # 2^-40 is held to its own scale
        for seed in range(20):
            m = 2 + seed % 4
            H, y = toeplitz_instance(kind, 40 + 2 * seed, m, seed, noise=False)
            ref = highs_lad_objective(H, y)
            cols = np.random.default_rng(seed).permutation(m)[:(m + 1) // 2]
            for k in (20, -20, 40, -40):
                scale = np.ones(m)
                scale[cols] = 2.0 ** k
                est = lad_estimate(H * scale, y)
                assert est.status == "optimal"
                assert est.objective == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("kind", ["pm1", "gaussian"])
    def test_columns_far_apart_in_scale_match_highs(self, kind):
        # the initial basis's rank test is relative to the largest column, so
        # it is retried with each column brought to max in [1, 2)
        for seed in range(30):
            H, y = toeplitz_instance(kind, 90, 3, seed, noise=False)
            ref = highs_lad_objective(H, y)
            for scale in ((1.0, 2.0**-52, 1.0), (2.0**26, 1.0, 2.0**-26),
                          (1.0, 1.0, 2.0**-60)):
                est = lad_estimate(H * np.array(scale), y)
                assert est.status == "optimal", (seed, scale)
                assert est.objective == pytest.approx(ref, rel=1e-9), (seed, scale)

    def test_rank_deficient_still_raises_after_column_scaling(self):
        H, y = toeplitz_instance("pm1", 90, 3, 0, noise=False)
        for third in (2.0**-60 * H[:, 0], np.zeros(90)):
            with pytest.raises(SingularSystemError):
                lad_estimate(np.column_stack([H[:, :2], third]), y)


class TestDecimalScaling:
    """Rescaling y or a column of H by a power of ten is not exact, so the
    pivots may move, but LAD must still end ``optimal`` at the optimum of the
    unscaled problem, scaled."""

    @staticmethod
    def instance(kind, seed, n=120, m=4, k=20):
        """Gaussian input with noise of sd 0.1, or +-1 input with integer
        outliers; k outliers either way."""
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            H = build_regressor(rng.standard_normal(n + m - 1), n, m).entries
            y = H @ rng.standard_normal(m) + 0.1 * rng.standard_normal(n)
            y[rng.choice(n, k, replace=False)] += 10.0 * rng.standard_normal(k)
        else:
            H = build_regressor(rng.choice([-1.0, 1.0], size=n + m - 1), n, m).entries
            y = H @ rng.standard_normal(m)
            y[rng.choice(n, k, replace=False)] += (rng.choice([-1.0, 1.0], size=k)
                                                    * rng.integers(1, 20, size=k))
        return H, y

    @pytest.mark.parametrize("kind", ["gaussian", "pm1"])
    def test_matches_highs_on_unscaled_data(self, kind):
        for seed in range(10):
            H, y = self.instance(kind, seed)
            ref = highs_lad_objective(H, y)
            for factor in (1e6, 1e-6, 1e-12):
                est = lad_estimate(H, factor * y)
                assert est.status == "optimal", (seed, factor)
                assert est.objective == pytest.approx(factor * ref, rel=1e-9), (seed, factor)
            for factor in (1e6, 1e-6, 1e12, 1e-12):
                scale = np.ones(H.shape[1])
                scale[seed % H.shape[1]] = factor
                est = lad_estimate(H * scale, y)
                assert est.status == "optimal", (seed, factor)
                assert est.objective == pytest.approx(ref, rel=1e-9), (seed, factor)


class TestLargeScale:
    """y scaled toward the float range on a 60 x 3 Gaussian Toeplitz instance
    with |y| up to 1: LAD's residual sum is 29 max|y| and LS's norm 4.4 max|y|."""

    @staticmethod
    def instance():
        H = gauss_toeplitz(60, 3, seed=0).entries
        y = np.random.default_rng(1).uniform(-1.0, 1.0, 60)
        return H, y / np.abs(y).max()

    def test_objectives_scale_at_1e300(self):
        # LS's squares overflow here; its norm is recomputed scaled by max|r|
        H, y = self.instance()
        for estimator in (lad_estimate, ls_estimate):
            ref, big = estimator(H, y), estimator(H, 1e300 * y)
            assert big.status == "optimal"
            assert big.objective == pytest.approx(1e300 * ref.objective, rel=1e-12)

    def test_residual_sum_beyond_the_float_range_raises(self):
        # LAD's residual sum is 2.9e308 at 1e307; LS's norm, 4.4e307, still fits
        H, y = self.instance()
        with pytest.raises(DimensionError, match="float range"):
            lad_estimate(H, 1e307 * y)
        ref, big = ls_estimate(H, y), ls_estimate(H, 1e307 * y)
        assert big.objective == pytest.approx(1e307 * ref.objective, rel=1e-12)

    def test_norm_beyond_the_float_range_raises(self):
        H, y = self.instance()
        with pytest.raises(DimensionError, match="float range"):
            ls_estimate(H, 1.5e308 * np.sign(y))


class TestLsEstimate:
    def test_exact_consistency(self):
        H = gauss_toeplitz(30, 4, seed=13)
        x = np.arange(1.0, 5.0)
        est = ls_estimate(H, H.entries @ x)
        assert np.allclose(est.x_hat, x, atol=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            H, y = random_instance(rng, n_max=20, m_max=4)
            est = ls_estimate(H, y)
            expected = np.linalg.solve(H.T @ H, H.T @ y)
            assert np.allclose(est.x_hat, expected, rtol=1e-8, atol=1e-10)

    def test_accepts_column_vector_regressor(self):
        est = ls_estimate(np.arange(1.0, 6.0), 2.0 * np.arange(1.0, 6.0))
        assert est.x_hat[0] == pytest.approx(2.0)
