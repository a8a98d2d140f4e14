import json
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import ladsysid.harness
import ladsysid.solver
from ladsysid import (ConfigError, DimensionError, ExperimentConfig, InputDist, Magnitude,
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
        res = run_experiment(ExperimentConfig(scenarios=[clean_scenario(n) for n in [30, 40]],
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
        res = run_experiment(ExperimentConfig(scenarios=[clean_scenario(n) for n in [30, 40]],
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

    def test_unknown_x_source(self):
        with pytest.raises(SpecError, match="unknown x source"):
            XSource("sobol")
        with pytest.raises(SpecError, match="requires a vector"):
            XSource("fixed")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fixed_vector_must_be_finite(self, bad):
        # a NaN entry used to be kept, and every trial then recorded an error
        with pytest.raises(SpecError, match="must be finite"):
            XSource.fixed([bad, 1.0])

    @pytest.mark.parametrize("vector", [[[1.0, 2.0]], [[1.0], [2.0]]], ids=["row", "column"])
    def test_fixed_vector_must_be_one_dimensional(self, vector):
        # a matrix used to reach float() and die with numpy's TypeError
        message = f"must be one-dimensional, got shape {np.shape(vector)}"
        with pytest.raises(SpecError, match=re.escape(message)):
            XSource.fixed(vector)

    def test_fixed_scalar_is_a_vector_of_one(self):
        assert XSource.fixed(1.0).vector == (1.0,)

    def test_unknown_consistency_noise(self):
        with pytest.raises(ConfigError, match="noise kind"):
            consistency_scenario("cauchy", 100)

    def test_fixed_vector_length(self):
        with pytest.raises(SpecError):
            Scenario(name="bad", n=5, m=2, input=InputDist.gaussian(1.0),
                     x_source=XSource.fixed([1.0]), noise=NoiseSpec.none(),
                     outliers=OutlierSpec.fixed(0))


class TestRunExperiment:
    def test_summary_matches_manual_aggregation(self, tmp_path):
        cfg = ExperimentConfig(
            scenarios=[clean_scenario(n) for n in [40, 60]], trials_per_point=3,
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
        cfg = ExperimentConfig(scenarios=[clean_scenario(n) for n in [40, 50]],
                               trials_per_point=2, master_seed=1)
        res = run_experiment(cfg)
        keys = [(r.n, r.trial, r.estimator) for r in res.rows]
        assert keys == sorted(keys)

    def test_mean_error_of_a_missing_point(self):
        cfg = ExperimentConfig(scenarios=[clean_scenario(40)], trials_per_point=1,
                               master_seed=1)
        res = run_experiment(cfg)
        assert res.mean_error(40, "lad") == res.summary[0].mean_error
        with pytest.raises(KeyError):
            res.mean_error(50, "lad")
        with pytest.raises(KeyError):
            res.mean_error(40, "huber")

    def test_determinism_of_whole_experiment(self, tmp_path):
        # everything except wall-clock timing is a pure function of the seed
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            run_experiment(ExperimentConfig(
                scenarios=[clean_scenario(n) for n in [30, 40]], trials_per_point=2,
                master_seed=5, out_path=str(p)))
        rows1, rows2 = read_trials_csv(p1), read_trials_csv(p2)
        strip = lambda r: (r.scenario_id, r.n, r.m, r.trial, r.estimator,
                           r.error_l2, r.objective, r.k, r.status)
        assert [strip(r) for r in rows1] == [strip(r) for r in rows2]

    def test_unwritable_path_fails_before_compute(self, tmp_path):
        cfg = ExperimentConfig(
            scenarios=[clean_scenario(n) for n in [40]], trials_per_point=1,
            master_seed=0, out_path=str(tmp_path / "missing" / "out.csv"))
        with pytest.raises(OSError):
            run_experiment(cfg)

    def test_lad_dominates_ls_with_outliers_at_scale(self):
        cfg = ExperimentConfig(scenarios=[outlier_scenario(n) for n in [500]],
                               trials_per_point=5, master_seed=2)
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
            ExperimentConfig(scenarios=[clean_scenario(n) for n in []])
        with pytest.raises(ConfigError):
            ExperimentConfig(scenarios=[clean_scenario(n) for n in [50, 50]])
        with pytest.raises(ConfigError):
            ExperimentConfig(scenarios=[clean_scenario(n) for n in [50]],
                             trials_per_point=0)


    def test_summary_header_when_every_trial_fails(self, tmp_path, monkeypatch):
        def singular(H, y):
            raise np.linalg.LinAlgError("Singular matrix")

        for name in ("lad", "ls"):
            monkeypatch.setitem(ladsysid.harness._ESTIMATORS, name, singular)
        out = tmp_path / "out.csv"
        res = run_experiment(ExperimentConfig(scenarios=[clean_scenario(30)],
                                              trials_per_point=2, out_path=str(out)))
        assert res.summary == []
        assert out.with_suffix(".summary.csv").read_text().splitlines() == [
            "n,estimator,noise_kind,mean_error,median_error,trials"]


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
        cfg = ExperimentConfig(scenarios=[fir_scenario(n) for n in [120, 150]],
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

    @pytest.mark.parametrize("trials", [2.5, True, np.True_, 0, -1])
    def test_trials_must_be_whole(self, trials):
        with pytest.raises(DimensionError, match="trials must be an integer >= 1"):
            snr_db(fir_scenario(100), trials=trials, master_seed=1)

    @pytest.mark.parametrize("trials", [5.0, np.int64(5)])
    def test_integral_trials_are_their_integer(self, trials):
        assert snr_db(fir_scenario(100), trials, 1) == snr_db(fir_scenario(100), 5, 1)


def scenario_dict(**specs):
    """A minimal scenario config, with the given spec objects put in."""
    scenario = {"m": 2, "input": {"kind": "gaussian"},
                "outliers": {"count_model": "fixed", "k": 0}}
    scenario.update(specs)
    return {"scenario": scenario, "n_grid": [10]}


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
        assert cfg.scenarios[0].m == 3
        assert cfg.scenarios[0].noise.kind == "gamma"
        assert [s.n for s in cfg.scenarios] == [50, 100]
        assert cfg.trials_per_point == 4
        assert cfg.master_seed == 17
        assert cfg.out_path == "x.csv"

    def test_builtin_with_overrides(self):
        cfg = config_from_dict({"builtin": "consistency_gamma",
                                "n_grid": [100, 200],
                                "trials_per_point": 2,
                                "master_seed": 4})
        assert cfg.scenarios[0].noise.kind == "gamma"
        assert [s.outliers.k for s in cfg.scenarios] == [50, 100]

    @pytest.mark.parametrize("key,value", [
        ("n_grid", [60, 90]), ("trials_per_point", 3), ("master_seed", 4), ("out", "x.csv")])
    @pytest.mark.parametrize("name,direct", [
        ("fir", fir_config),
        ("consistency_gaussian", partial(consistency_config, "gaussian")),
        ("consistency_gamma", partial(consistency_config, "gamma")),
        ("consistency_exponential", partial(consistency_config, "exponential")),
    ], ids=["fir", "gaussian", "gamma", "exponential"])
    def test_builtin_takes_its_keyword_arguments(self, name, direct, key, value):
        cfg = config_from_dict({"builtin": name, key: value})
        assert cfg == direct(**{"out_path" if key == "out" else key: value})

    def test_fixed_x_vector(self):
        cfg = config_from_dict({
            "scenario": {"m": 2, "input": {"kind": "bernoulli_pm1"},
                         "x_source": {"kind": "fixed", "vector": [1.0, 2.0]},
                         "outliers": {"count_model": "fixed", "k": 0}},
            "n_grid": [10],
        })
        assert cfg.scenarios[0].x_source.vector == (1.0, 2.0)

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

    @pytest.mark.parametrize("bad", [
        {"builtin": "fir", "trial_per_point": 3},
        {**scenario_dict(), "master_sed": 4},
        {**scenario_dict(), "builtin": "fir"},
        scenario_dict(estimator=["ls"]),
        scenario_dict(n=10),
        {**scenario_dict(), "n_grid": [60.7]},
        {"builtin": "fir", "n_grid": [60.7]},
        scenario_dict(m=2.5),
        {**scenario_dict(), "trials_per_point": 2.5},
        {"builtin": "fir", "trials_per_point": 2.5},
        {**scenario_dict(), "out": "a.csv", "out_path": "b.csv"},
    ], ids=["builtin-root-key", "scenario-root-key", "builtin-with-scenario",
            "scenario-key", "scenario-n", "n_grid", "builtin-n_grid", "m",
            "trials_per_point", "builtin-trials_per_point", "out_path"])
    def test_every_key_is_checked(self, bad):
        # the root and the scenario are keyword arguments of their function or
        # dataclass, so no key is dropped and no count is truncated
        with pytest.raises(ConfigError):
            config_from_dict(bad)

    @pytest.mark.parametrize("specs", [
        {"input": {"kind": "bernoulli_pm1", "sigma": 5}},
        {"noise": {"kind": "none", "sigma": 2}},
        {"outliers": {"count_model": "fixed", "max_fraction": 0.3}},
    ], ids=["input", "noise", "outliers"])
    def test_field_the_kind_does_not_use_is_config_error(self, specs):
        with pytest.raises(ConfigError, match="does not use"):
            config_from_dict(scenario_dict(**specs))

    @pytest.mark.parametrize("outliers,field", [
        ({"count_model": "fixed"}, "k"),
        ({"count_model": "uniform_fraction"}, "max_fraction"),
    ], ids=["fixed", "uniform_fraction"])
    def test_omitted_outlier_count_is_config_error(self, outliers, field):
        # an omitted count is not 0: the count model's field must be given
        with pytest.raises(ConfigError, match=f"requires {field}"):
            config_from_dict(scenario_dict(outliers=outliers))

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"builtin": "fir", "n_grid": [100],
                                    "trials_per_point": 1}))
        cfg = load_config(path)
        assert cfg.scenarios[0].name == "fir"

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)

    @pytest.mark.parametrize("specs", [
        {"input": {"kind": "gaussian", "sigm": 2}},
        {"noise": {"kind": "gamma", "shape": 2.0, "scale": 0.4, "shap": 3.0}},
        {"outliers": {"count_model": "fixed", "k": 2, "magnitude_sd": 5.0}},
        {"x_source": {"kind": "gaussian_random", "vectr": [1.0, 2.0]}},
    ], ids=["input", "noise", "outliers", "x_source"])
    def test_unknown_key_is_config_error(self, specs):
        # each spec object holds exactly its dataclass's fields, so a
        # misspelled key cannot leave its field at the default
        with pytest.raises(ConfigError, match="unexpected keyword argument"):
            config_from_dict(scenario_dict(**specs))

    @pytest.mark.parametrize("field", ["input", "noise", "outliers", "x_source"])
    def test_non_object_spec_is_config_error(self, field):
        with pytest.raises(ConfigError, match="must be an object"):
            config_from_dict(scenario_dict(**{field: ["gaussian"]}))

    @pytest.mark.parametrize("specs", [
        {"noise": {"kind": "gaussian", "sigma": 1.0, "seed": 3}},
        {"outliers": {"count_model": "fixed", "k": 1, "seed": 3}},
    ], ids=["noise", "outliers"])
    def test_seed_key_is_config_error(self, specs):
        # every trial derives its own sub-seeds and would overwrite this one
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(scenario_dict(**specs))

    def test_k_must_be_integral(self):
        for k in (3, 3.0):
            spec = config_from_dict(scenario_dict(
                outliers={"count_model": "fixed", "k": k})).scenarios[0].outliers
            assert spec.k == 3 and type(spec.k) is int
        with pytest.raises(ConfigError, match="integer"):
            config_from_dict(scenario_dict(outliers={"count_model": "fixed", "k": 3.5}))

    @pytest.mark.parametrize("vector", [[1 + 1j, 2.0], [float("nan"), 1.0], [[1.0, 2.0]],
                                        [[1.0], [2.0]]],
                             ids=["complex", "nan", "row", "column"])
    def test_bad_fixed_vector_is_config_error(self, vector):
        with pytest.raises(ConfigError, match="must be (real|finite|one-dimensional)"):
            config_from_dict(scenario_dict(x_source={"kind": "fixed", "vector": vector}))

    def test_fields_are_coerced(self):
        scen = config_from_dict(scenario_dict(
            input={"kind": "gaussian", "sigma": 2},
            x_source={"kind": "fixed", "vector": [1, 2]})).scenarios[0]
        assert scen.input == InputDist.gaussian(2.0) and type(scen.input.sigma) is float
        assert scen.x_source.vector == (1.0, 2.0)
        assert all(type(v) is float for v in scen.x_source.vector)

    @pytest.mark.parametrize("noise,expected", [
        ({"kind": "none"}, NoiseSpec.none()),
        ({"kind": "gaussian", "sigma": 0.5}, NoiseSpec.gaussian(0.5)),
        ({"kind": "gamma", "shape": 2, "scale": 0.25}, NoiseSpec.gamma(2.0, 0.25)),
        ({"kind": "exponential", "mean": 0.7}, NoiseSpec.exponential(0.7)),
    ], ids=["none", "gaussian", "gamma", "exponential"])
    def test_every_noise_kind_builds_from_json(self, noise, expected):
        cfg = config_from_dict(json.loads(json.dumps(scenario_dict(noise=noise))))
        assert cfg.scenarios[0].noise == expected

    def test_out_overrides_builtin(self):
        cfg = config_from_dict({"builtin": "consistency_exponential", "out": "e.csv"})
        assert cfg.out_path == "e.csv"
        assert cfg.scenarios[0].noise == NoiseSpec.exponential(np.sqrt(2.0) / 2.0)

    def test_readme_config_examples_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        schema = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0]
        examples = re.findall(r"```json\n(.*?)```", schema, re.S)
        assert len(examples) == 2
        for text in examples:
            assert isinstance(config_from_dict(json.loads(text)), ExperimentConfig)
