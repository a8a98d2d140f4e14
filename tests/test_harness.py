import json
import math

import numpy as np
import pytest

import ladsysid.harness
import ladsysid.solver
from ladsysid import (ConfigError, ExperimentConfig, InputDist, Magnitude,
                      NoiseSpec, OutlierSpec, Scenario, SpecError, TrialRow,
                      XSource, config_from_dict, emit_csv, consistency_config,
                      consistency_scenario, fir_config, fir_scenario, load_config,
                      read_trials_csv, run_experiment, run_trial,
                      scenario_table1, snr_db, trial_rows)
from ladsysid.harness import _draw_trial


def clean_scenario(n=40, m=3):
    return Scenario(
        name="clean", n=n, m=m,
        input=InputDist.gaussian(1.0),
        x_source=XSource.gaussian_random(),
        noise=NoiseSpec.none(),
        outliers=OutlierSpec.fixed(0),
        estimators=("lad", "ls"),
    )


def outlier_scenario(n=500, m=5):
    return Scenario(
        name="half-outliers", n=n, m=m,
        input=InputDist.gaussian(1.0),
        x_source=XSource.gaussian_random(),
        noise=NoiseSpec.none(),
        outliers=OutlierSpec.fixed(n // 2, magnitude=Magnitude(100.0, 50.0)),
        estimators=("lad", "ls"),
    )


class TestRunTrial:
    def test_clean_consistent_system_recovers(self):
        rec = run_trial(clean_scenario(), seed=1)
        for run in rec.runs:
            assert run.error_l2 < 1e-10
        assert rec.k == 0

    def test_half_outliers_lad_wins_ls_breaks(self):
        rec = run_trial(outlier_scenario(), seed=2)
        by = {r.estimator: r for r in rec.runs}
        assert by["lad"].error_l2 < 1e-6
        assert by["ls"].error_l2 > 1.0
        assert rec.k == 250

    def test_determinism(self):
        s = fir_scenario(150)
        a = run_trial(s, seed=99)
        b = run_trial(s, seed=99)
        assert a.k == b.k
        for ra, rb in zip(a.runs, b.runs):
            assert np.array_equal(ra.x_hat, rb.x_hat)
            assert ra.error_l2 == rb.error_l2
            assert ra.objective == rb.objective

    def test_seed_isolation_across_noise_kinds(self):
        ha, _, ea, _ = _draw_trial(consistency_scenario("gaussian", 120), 7)
        hb, _, eb, _ = _draw_trial(consistency_scenario("gamma", 120), 7)
        assert np.array_equal(ha.entries, hb.entries)
        assert np.array_equal(ea != 0, eb != 0)

    def test_seed_isolation_across_outlier_magnitudes(self):
        s = outlier_scenario(100)
        s2 = Scenario(**{**s.__dict__,
                         "outliers": OutlierSpec.fixed(50, Magnitude(5.0, 1.0))})
        ha, xa, ea, wa = _draw_trial(s, 3)
        hb, xb, eb, wb = _draw_trial(s2, 3)
        assert np.array_equal(ha.entries, hb.entries)
        assert np.array_equal(xa, xb)
        assert np.array_equal(ea != 0, eb != 0)
        assert np.array_equal(wa, wb)

    def test_solver_error_recorded_not_raised(self):
        # hunt a Bernoulli seed whose 2x2 window matrix is singular
        scenario = Scenario(
            name="singular", n=2, m=2,
            input=InputDist.bernoulli_pm1(),
            x_source=XSource.fixed([1.0, 1.0]),
            noise=NoiseSpec.none(),
            outliers=OutlierSpec.fixed(0),
            estimators=("lad", "ls"),
        )
        seed = next(s for s in range(200)
                    if abs(np.linalg.det(_draw_trial(scenario, s)[0].entries)) < 1e-12)
        rec = run_trial(scenario, seed)
        for run in rec.runs:
            assert run.status == "error:SingularSystemError"
            assert np.isnan(run.error_l2)

    def test_linalg_error_recorded_and_sweep_completes(self, monkeypatch):
        def singular_pivot(H, y):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(ladsysid.harness._ESTIMATORS, "lad", singular_pivot)
        res = run_experiment(ExperimentConfig(scenario=clean_scenario(), n_grid=[30, 40],
                                              trials_per_point=2, master_seed=3))
        assert len(res.records) == 4
        for rec in res.records:
            by = {r.estimator: r for r in rec.runs}
            assert by["lad"].status == "error:LinAlgError"
            assert np.isnan(by["lad"].error_l2)
            assert by["ls"].status == "optimal"

    def test_non_finite_observation_recorded_and_sweep_completes(self, monkeypatch):
        draw = ladsysid.harness._draw_trial

        def nan_outlier(s, seed):
            H, x, e, w = draw(s, seed)
            e[3] = np.nan
            return H, x, e, w

        monkeypatch.setattr(ladsysid.harness, "_draw_trial", nan_outlier)
        res = run_experiment(ExperimentConfig(scenario=clean_scenario(), n_grid=[30, 40],
                                              trials_per_point=2, master_seed=3))
        assert len(res.records) == 4
        for rec in res.records:
            for run in rec.runs:
                assert run.status == "error:DimensionError"
                assert np.isnan(run.error_l2)

    def test_objective_beyond_the_float_range_recorded(self, monkeypatch):
        # outliers of 1e308 on every row: LAD's residual sum and LS's norm both
        # lie beyond the float range
        draw = ladsysid.harness._draw_trial

        def huge_outliers(s, seed):
            H, x, e, w = draw(s, seed)
            e[:] = 1e308
            return H, x, e, w

        monkeypatch.setattr(ladsysid.harness, "_draw_trial", huge_outliers)
        rec = run_trial(clean_scenario(), seed=4)
        assert {r.estimator: r.status for r in rec.runs} == {
            "lad": "error:DimensionError", "ls": "error:DimensionError"}

    def test_error_l2_beyond_the_squares_range_stays_finite(self):
        # 25 outliers of ~1e200 on 40 rows: LS's x_hat reaches 1.4e199, whose
        # square overflows; the norm is recomputed scaled by max|x_hat - x|
        s = Scenario(name="huge-outliers", n=40, m=3, input=InputDist.gaussian(1.0),
                     x_source=XSource.gaussian_random(), noise=NoiseSpec.none(),
                     outliers=OutlierSpec.fixed(25, magnitude=Magnitude(1e200, 5e199)),
                     estimators=("lad", "ls"))
        rec = run_trial(s, seed=4)
        _, x, _, _ = _draw_trial(s, 4)
        by = {r.estimator: r for r in rec.runs}
        assert by["ls"].status == "optimal" and np.abs(by["ls"].x_hat).max() > 1e199
        for run in rec.runs:
            assert run.error_l2 == pytest.approx(math.hypot(*(run.x_hat - x)), rel=1e-14)
        assert by["lad"].error_l2 == float(np.linalg.norm(by["lad"].x_hat - x))

    def test_singular_basis_recorded_as_linalg_error(self, monkeypatch):
        # a basis holding the same row twice is singular at the first solve
        monkeypatch.setattr(ladsysid.solver, "_initial_basis", lambda A: np.array([0, 0, 1]))
        rec = run_trial(clean_scenario(), seed=4)
        by = {r.estimator: r for r in rec.runs}
        assert by["lad"].status == "error:LinAlgError"
        assert by["ls"].status == "optimal"

    def test_fixed_x_source(self):
        s = Scenario(
            name="fixed-x", n=30, m=2,
            input=InputDist.gaussian(1.0),
            x_source=XSource.fixed([0.3, -0.7]),
            noise=NoiseSpec.none(),
            outliers=OutlierSpec.fixed(0),
            estimators=("ls",),
        )
        rec = run_trial(s, seed=5)
        assert np.allclose(rec.runs[0].x_hat, [0.3, -0.7], atol=1e-10)


class TestScenarioValidation:
    def test_dimension_rule(self):
        with pytest.raises(SpecError):
            Scenario(name="bad", n=2, m=3, input=InputDist.gaussian(1.0),
                     x_source=XSource.gaussian_random(), noise=NoiseSpec.none(),
                     outliers=OutlierSpec.fixed(0))

    def test_estimator_selection(self):
        with pytest.raises(SpecError):
            Scenario(name="bad", n=5, m=2, input=InputDist.gaussian(1.0),
                     x_source=XSource.gaussian_random(), noise=NoiseSpec.none(),
                     outliers=OutlierSpec.fixed(0), estimators=())
        with pytest.raises(SpecError):
            Scenario(name="bad", n=5, m=2, input=InputDist.gaussian(1.0),
                     x_source=XSource.gaussian_random(), noise=NoiseSpec.none(),
                     outliers=OutlierSpec.fixed(0), estimators=("ridge",))

    def test_fixed_vector_length(self):
        with pytest.raises(SpecError):
            Scenario(name="bad", n=5, m=2, input=InputDist.gaussian(1.0),
                     x_source=XSource.fixed([1.0]), noise=NoiseSpec.none(),
                     outliers=OutlierSpec.fixed(0))


class TestRunExperiment:
    def test_summary_matches_manual_aggregation(self, tmp_path):
        cfg = ExperimentConfig(
            scenario=clean_scenario(), n_grid=[40, 60], trials_per_point=3,
            master_seed=11, out_path=str(tmp_path / "out.csv"),
        )
        res = run_experiment(cfg)
        assert len(res.records) == 6
        for row in res.summary:
            errs = [r.error_l2 for r in res.rows
                    if r.n == row.n and r.estimator == row.estimator]
            assert row.mean_error == pytest.approx(np.mean(errs))
            assert row.median_error == pytest.approx(np.median(errs))
            assert row.trials == 3

    def test_rows_are_canonically_ordered(self):
        cfg = ExperimentConfig(scenario=clean_scenario(), n_grid=[40, 50],
                               trials_per_point=2, master_seed=1)
        res = run_experiment(cfg)
        keys = [(r.n, r.trial, r.estimator) for r in res.rows]
        assert keys == sorted(keys)

    def test_determinism_of_whole_experiment(self, tmp_path):
        # everything except wall-clock timing is a pure function of the seed
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            run_experiment(ExperimentConfig(
                scenario=clean_scenario(), n_grid=[30, 40], trials_per_point=2,
                master_seed=5, out_path=str(p)))
        rows1, rows2 = read_trials_csv(p1), read_trials_csv(p2)
        strip = lambda r: (r.scenario_id, r.n, r.m, r.trial, r.estimator,
                           r.error_l2, r.objective, r.k, r.status)
        assert [strip(r) for r in rows1] == [strip(r) for r in rows2]

    def test_unwritable_path_fails_before_compute(self, tmp_path):
        cfg = ExperimentConfig(
            scenario=clean_scenario(), n_grid=[40], trials_per_point=1,
            master_seed=0, out_path=str(tmp_path / "missing" / "out.csv"))
        with pytest.raises(OSError):
            run_experiment(cfg)

    def test_lad_dominates_ls_with_outliers_at_scale(self):
        cfg = ExperimentConfig(scenario=outlier_scenario(500),
                               n_grid=[500], trials_per_point=5, master_seed=2)
        res = run_experiment(cfg)
        assert res.mean_error(500, "lad") < res.mean_error(500, "ls")

    def test_fir_replica_error_decreases_and_lad_dominates(self):
        cfg = fir_config(n_grid=[100, 500, 1000], trials_per_point=10,
                         master_seed=20250809)
        res = run_experiment(cfg)
        assert res.mean_error(1000, "lad") < res.mean_error(100, "lad")
        for n in (500, 1000):
            assert res.mean_error(n, "lad") < res.mean_error(n, "ls")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario=clean_scenario(), n_grid=[])
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario=clean_scenario(), n_grid=[50, 50])
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario=clean_scenario(), n_grid=[50],
                             trials_per_point=0)


class TestCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scenario_id,n,m,trial,estimator,error_l2")

    def test_one_trial_one_estimator_two_lines(self, tmp_path):
        s = Scenario(**{**clean_scenario().__dict__, "estimators": ("lad",)})
        rows = trial_rows([run_trial(s, seed=3)])
        path = tmp_path / "one.csv"
        emit_csv(rows, path)
        assert len(path.read_text().strip().splitlines()) == 2

    def test_roundtrip_full_precision(self, tmp_path):
        cfg = ExperimentConfig(scenario=fir_scenario(120), n_grid=[120, 150],
                               trials_per_point=2, master_seed=9)
        res = run_experiment(cfg)
        path = tmp_path / "trips.csv"
        emit_csv(res.rows, path)
        assert read_trials_csv(path) == res.rows

    def test_seventeen_digit_floats(self, tmp_path):
        row = TrialRow(scenario_id="s", n=1, m=1, trial=0, estimator="lad",
                       error_l2=1.0 / 3.0, objective=np.pi, k=0,
                       status="optimal", wall_ms=0.1)
        path = tmp_path / "digits.csv"
        emit_csv([row], path)
        back = read_trials_csv(path)[0]
        assert back.error_l2 == 1.0 / 3.0
        assert back.objective == np.pi


class TestTable1Dataset:
    def test_values_as_printed(self):
        tab = scenario_table1()
        assert np.array_equal(tab.z, np.arange(11.0))
        assert tab.y_clean[0] == 0.1779
        assert tab.y_clean[8] == 2.177
        assert tab.y_clean[10] == 1.9975
        assert tab.y_outlier[10] == 11.9975
        assert np.array_equal(tab.y_clean[:10], tab.y_outlier[:10])
        assert np.array_equal(tab.x_true, [0.2, 0.2])

    def test_regressor_columns(self):
        tab = scenario_table1()
        H = tab.regressor()
        assert np.array_equal(H[:, 0], tab.z)
        assert (H[:, 1] == 1.0).all()


class TestSnr:
    def test_fir_snr_near_paper_level(self):
        db = snr_db(fir_scenario(1000), trials=20, master_seed=3)
        assert abs(db - (-30.0)) <= 3.0

    def test_deterministic(self):
        assert snr_db(fir_scenario(500), 5, 1) == snr_db(fir_scenario(500), 5, 1)

    def test_no_outliers_is_an_error(self):
        with pytest.raises(SpecError):
            snr_db(clean_scenario(), trials=2, master_seed=0)


class TestConfigFiles:
    def test_full_scenario_dict(self):
        cfg = config_from_dict({
            "scenario": {
                "name": "custom", "m": 3,
                "input": {"kind": "gaussian", "sigma": 2.0},
                "x_source": {"kind": "gaussian_random"},
                "noise": {"kind": "gamma", "shape": 2.0, "scale": 0.408},
                "outliers": {"count_model": "uniform_fraction",
                             "max_fraction": 0.2, "mean": 100, "sd": 50},
                "estimators": ["lad"],
            },
            "n_grid": [50, 100],
            "trials_per_point": 4,
            "master_seed": 17,
            "out": "x.csv",
        })
        assert cfg.scenario.m == 3
        assert cfg.scenario.noise.kind == "gamma"
        assert cfg.n_grid == [50, 100]
        assert cfg.trials_per_point == 4
        assert cfg.master_seed == 17
        assert cfg.out_path == "x.csv"

    def test_builtin_with_overrides(self):
        cfg = config_from_dict({"builtin": "consistency_gamma",
                                "n_grid": [100, 200],
                                "trials_per_point": 2,
                                "master_seed": 4})
        assert cfg.scenario.noise.kind == "gamma"
        assert cfg.scenario_factory is not None
        assert cfg.scenario_factory(200).outliers.k == 100

    def test_fixed_x_vector(self):
        cfg = config_from_dict({
            "scenario": {"m": 2, "input": {"kind": "bernoulli_pm1"},
                         "x_source": {"kind": "fixed", "vector": [1.0, 2.0]},
                         "outliers": {"count_model": "fixed", "k": 0}},
            "n_grid": [10],
        })
        assert cfg.scenario.x_source.vector == (1.0, 2.0)

    @pytest.mark.parametrize("bad", [
        {"n_grid": [10]},                                     # no scenario
        {"scenario": {"m": 2}, "n_grid": [10]},               # no input/outliers
        {"scenario": {"m": 2, "input": {"kind": "cauchy"},
                      "outliers": {"count_model": "fixed", "k": 0}},
         "n_grid": [10]},                                     # bad input kind
        {"builtin": "figure9"},                               # unknown builtin
        {"scenario": {"m": 2, "input": {"kind": "gaussian"},
                      "outliers": {"count_model": "fixed", "k": 0}},
         "n_grid": [10, 5]},                                  # non-increasing
        [],                                                   # not an object
    ])
    def test_bad_configs(self, bad):
        with pytest.raises(ConfigError):
            config_from_dict(bad)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"builtin": "fir", "n_grid": [100],
                                    "trials_per_point": 1}))
        cfg = load_config(path)
        assert cfg.scenario.name == "fir"

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)
