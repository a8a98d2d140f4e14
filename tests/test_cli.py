import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ladsysid
import ladsysid.cert
from ladsysid import balance_gap
from ladsysid.cli import main
from ladsysid.solver import Estimate
from oracles import gauss_toeplitz


class TestBasics:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "ladsysid 0.1.0" in capsys.readouterr().out

    def test_unknown_command_is_config_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["certify", "--n", "10"]) == 1

    def test_usage_error_after_a_successful_call(self, capsys):
        # the parser is built once per process; a parse must leave nothing behind
        assert main(["threshold", "--m-max", "2"]) == 0
        assert main(["threshold", "--m-max", "2", "--bogus"]) == 1
        assert main(["certify", "--n", "10"]) == 1
        assert main(["threshold", "--m-max", "2"]) == 0
        assert "m=  2" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["experiment", "--config", "c.json"], ["table1"],
                                      ["certify", "--n", "5", "--m", "1", "--support", "0"],
                                      ["threshold"]])
    def test_each_subcommand_carries_its_handler(self, argv):
        args = ladsysid.cli._build_parser().parse_args(argv)
        assert args.run is getattr(ladsysid.cli, f"_cmd_{argv[0]}")


class TestTable1:
    def test_prints_golden_estimates(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "(0.1958, 0.2286)" in out
        assert "(0.6503, -1.1351)" in out
        assert "(0.2109, 0.1955)" in out


class TestCertify:
    def test_exact_small_support(self, capsys):
        rc = main(["certify", "--n", "12", "--m", "2", "--support", "0,5",
                   "--input-seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert "method: vertices (10 vertices scored)" in out

    def test_mc_method(self, capsys):
        rc = main(["certify", "--n", "15", "--m", "2", "--support", "1,2",
                   "--method", "mc", "--trials", "500", "--seed", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert "method: mc (500 directions sampled)" in out

    def test_cap_exceeded_is_config_error(self, capsys):
        support = ",".join(str(i) for i in range(21))
        rc = main(["certify", "--n", "200", "--m", "6", "--support", support])
        assert rc == 1
        assert "certify_support_mc" in capsys.readouterr().err

    def test_large_support_on_vertex_route(self, capsys):
        support = ",".join(str(i) for i in range(0, 200, 7))
        rc = main(["certify", "--n", "200", "--m", "3", "--support", support])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: certified" in out
        assert "method: vertices (14535 vertices scored)" in out

    def test_patterns_work_counts_lad_fits(self, capsys):
        rc = main(["certify", "--n", "500", "--m", "5", "--support", "1,2,3"])
        assert rc == 0
        assert "method: patterns (4 sign-pattern LAD fits)" in capsys.readouterr().out

    def test_falsified_prints_witness(self, capsys):
        K = [0, 1, 4, 5, 6, 7, 8, 9]
        rc = main(["certify", "--n", "30", "--m", "3", "--support",
                   ",".join(map(str, K)), "--input-seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: falsified" in out
        line = next(line for line in out.splitlines() if line.startswith("witness: "))
        assert line == "witness: 0.679251 -0.591142 0.434935"
        z = [float(v) for v in line.split()[1:]]
        assert balance_gap(gauss_toeplitz(30, 3, seed=3), K, z) <= 0.0

    def test_rank_deficient_input_is_solver_error(self, capsys):
        # +-1 input seed 4 at n = 6, m = 3 gives a regressor of rank 2
        rc = main(["certify", "--n", "6", "--m", "3", "--support", "0",
                   "--input", "bernoulli_pm1", "--input-seed", "4"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("solver error:")

    def test_malformed_support_list(self, capsys):
        rc = main(["certify", "--n", "10", "--m", "2", "--support", "0,x"])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["--n", "12", "--m", "2", "--support", "0,5", "--sigma", "-1"],
        ["--n", "12", "--m", "2", "--support", "0,40"],
        ["--n", "1", "--m", "2", "--support", "0"],
        ["--n", "12", "--m", "2", "--support", "0,5", "--method", "mc", "--trials", "0"],
        ["--n", "12", "--m", "2", "--support", "0,5", "--input", "bernoulli_pm1",
         "--sigma", "5"],
        ["--n", "12", "--m", "2", "--support", "0,5", "--input-seed", "-1"],
        ["--n", "12", "--m", "2", "--support", "0,5", "--method", "mc", "--seed", "-3"],
    ], ids=["negative-sigma", "support-out-of-range", "n-below-m", "zero-trials",
            "sigma-on-pm1-input", "negative-input-seed", "negative-mc-seed"])
    def test_bad_arguments_are_config_errors(self, argv, capsys):
        assert main(["certify", *argv]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_patterns_gap_does_not_depend_on_input_scale(self, capsys):
        # 4 sign patterns against C(197, 2) vertices: the pattern LPs run, on
        # inputs 1e-12 to 1e6 in scale
        gaps = set()
        for sigma in ("1e-12", "1", "1e6"):
            rc = main(["certify", "--n", "200", "--m", "3", "--support", "0,1,2",
                       "--sigma", sigma])
            out = capsys.readouterr().out
            assert rc == 0 and "method: patterns" in out
            gaps.add(next(line for line in out.splitlines() if line.startswith("worst_gap")))
        assert len(gaps) == 1

    def test_pattern_lp_failure_exits_with_solver_code(self, monkeypatch, capsys):
        monkeypatch.setattr(ladsysid.cert, "lad_estimate",
                            lambda B, y: Estimate(None, 0.0, y, "iteration_limit", "lad"))
        rc = main(["certify", "--n", "200", "--m", "3", "--support", "0,1,2"])
        assert rc == 2
        assert ("sign-pattern LAD solve ended with status iteration_limit"
                in capsys.readouterr().err)

    def test_bernoulli_input(self, capsys):
        rc = main(["certify", "--n", "14", "--m", "1", "--support", "2",
                   "--input", "bernoulli_pm1", "--input-seed", "8"])
        assert rc == 0


class TestThreshold:
    def test_writes_curve_csv(self, tmp_path, capsys):
        out = tmp_path / "thresholds.csv"
        rc = main(["threshold", "--m-min", "1", "--m-max", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,beta_star,mu,delta,lhs"
        assert len(lines) == 3
        m, beta, mu, delta, lhs = lines[1].split(",")
        assert m == "1"
        assert float(beta) > 0
        assert float(lhs) < 0

    def test_bad_range(self, capsys):
        assert main(["threshold", "--m-min", "3", "--m-max", "1"]) == 1

    def test_m_above_table_is_config_error(self, capsys):
        assert main(["threshold", "--m-max", "51"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "<= 50" in err

    def test_unwritable_out_fails_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "no" / "dir" / "t.csv"
        assert main(["threshold", "--m-max", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:")


class TestClosedStdout:
    """A reader that closes stdout early, as ``| head`` does, ends the command
    with exit code 0 and nothing on stderr, after ``--out`` is written whole."""

    SCRIPT = "import sys; from ladsysid.cli import main; sys.exit(main())"

    def _start(self, tmp_path, unbuffered, stdout):
        src = str(Path(ladsysid.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = ["threshold", "--m-min", "1", "--m-max", "50", "--out", str(tmp_path / "t.csv")]
        return subprocess.Popen([sys.executable, "-c", self.SCRIPT, *argv], env=env,
                                stdout=stdout, stderr=subprocess.PIPE)

    def _check(self, proc, tmp_path):
        err = proc.communicate(timeout=120)[1]
        assert (proc.returncode, err) == (0, b"")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert len(lines) == 51 and lines[0] == "m,beta_star,mu,delta,lhs"

    def test_unbuffered_reader_closes_after_the_first_line(self, tmp_path):
        proc = self._start(tmp_path, True, subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"m=  1  beta_star=")
        proc.stdout.close()
        self._check(proc, tmp_path)

    def test_buffered_reader_closes_before_any_output(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._start(tmp_path, False, write_end)
        finally:
            os.close(write_end)
        self._check(proc, tmp_path)


class TestExperiment:
    def test_builtin_config_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "trials.csv"
        cfg.write_text(json.dumps({
            "builtin": "fir",
            "n_grid": [60, 90],
            "trials_per_point": 2,
            "master_seed": 5,
        }))
        rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "n,estimator,noise_kind,mean_error,median_error,trials" in text
        assert "SNR on corrupted observations" in text
        assert out.exists()
        assert out.with_suffix(".summary.csv").exists()

    def test_custom_scenario_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": {
                "name": "tiny", "m": 2,
                "input": {"kind": "gaussian", "sigma": 1.0},
                "noise": {"kind": "gaussian", "sigma": 0.1},
                "outliers": {"count_model": "fixed", "k": 3,
                             "mean": 50, "sd": 10},
                "estimators": ["lad", "ls"],
            },
            "n_grid": [40],
            "trials_per_point": 2,
            "master_seed": 1,
        }))
        assert main(["experiment", "--config", str(cfg)]) == 0

    def test_custom_scenario_named_fir_prints_snr(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": {"name": "fir", "m": 2, "input": {"kind": "gaussian"},
                         "outliers": {"count_model": "fixed", "k": 3}},
            "n_grid": [30, 40],
            "trials_per_point": 2,
        }))
        assert main(["experiment", "--config", str(cfg)]) == 0
        assert "# SNR on corrupted observations:" in capsys.readouterr().out

    def test_fir_scenario_without_outliers_has_undefined_snr(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "trials.csv"
        cfg.write_text(json.dumps({
            "scenario": {"name": "fir", "m": 2, "input": {"kind": "gaussian"},
                         "outliers": {"count_model": "fixed", "k": 0}},
            "n_grid": [30],
            "trials_per_point": 2,
            "out": str(out),
        }))
        assert main(["experiment", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["# SNR on corrupted observations: undefined",
                              f"# trials written to {out}"]

    def test_seed_override_changes_results(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "consistency_gaussian",
                                   "n_grid": [80], "trials_per_point": 1}))
        assert main(["experiment", "--config", str(cfg), "--seed", "1"]) == 0
        out1 = capsys.readouterr().out
        assert main(["experiment", "--config", str(cfg), "--seed", "2"]) == 0
        out2 = capsys.readouterr().out
        assert out1 != out2

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["experiment", "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_non_object_spec_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"m": 2, "input": ["gaussian"],
                                                "outliers": {"count_model": "fixed", "k": 0}},
                                   "n_grid": [10]}))
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_content(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"m": 2}, "n_grid": [10]}))
        assert main(["experiment", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("config,argv", [
        ({}, ["--seed", "-1"]),
        ({"master_seed": -1}, []),
        ({"trials_per_point": True}, []),
        ({"scenario": {"m": 2, "input": {"kind": "gaussian", "sigma": True},
                       "outliers": {"count_model": "fixed", "k": 1}}}, []),
        ({"scenario": {"m": 2, "input": {"kind": "gaussian"},
                       "outliers": {"count_model": "fixed", "k": True}}}, []),
    ], ids=["negative-seed-flag", "negative-master-seed", "boolean-trials",
            "boolean-sigma", "boolean-k"])
    def test_bad_value_is_config_error_before_any_csv(self, tmp_path, capsys, config, argv):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "trials.csv"
        base = {"builtin": "fir"} if "scenario" not in config else {}
        cfg.write_text(json.dumps({**base, "n_grid": [30], "trials_per_point": 1, **config}))
        assert main(["experiment", "--config", str(cfg), "--out", str(out), *argv]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_unwritable_out_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "fir", "n_grid": [60],
                                   "trials_per_point": 1}))
        rc = main(["experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "no" / "dir" / "o.csv")])
        assert rc == 1


class TestColdStart:
    """No subcommand imports a scipy module: ``_native`` loads LAPACK geqp3 and
    erfc from scipy's extension files, so a fresh ``ladsysid`` process skips
    scipy's start-up."""

    SCRIPT = """
import sys
from ladsysid.cli import main
for config in sys.argv[1:]:
    assert main(["experiment", "--config", config, "--out", config + ".csv"]) == 0
certify = ["certify", "--n", "200", "--m", "3", "--support"]
for argv in (["threshold", "--m-max", "2"],
             ["certify", "--n", "12", "--m", "2", "--support", "0,5"],
             certify + ["0,1,2"],
             certify + ["0,1,2", "--method", "mc", "--trials", "500"],
             ["table1"]):
    assert main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded
"""

    def test_sweep_imports_no_scipy(self, tmp_path):
        noiseless = {"scenario": {"m": 5, "input": {"kind": "bernoulli_pm1"},
                                  "noise": {"kind": "none"},
                                  "outliers": {"count_model": "uniform_fraction",
                                               "max_fraction": 0.8, "sd": 10.0}},
                     "n_grid": [100], "trials_per_point": 1}
        fir = {"builtin": "fir", "n_grid": [60], "trials_per_point": 1}
        configs = []
        for name, cfg in (("noiseless", noiseless), ("fir", fir)):
            configs.append(tmp_path / f"{name}.json")
            configs[-1].write_text(json.dumps(cfg))
        src = str(Path(ladsysid.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *map(str, configs)],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "m=  2  beta_star=0.026031" in proc.stdout
        for method in ("vertices", "patterns", "mc"):
            assert f"method: {method} (" in proc.stdout
        assert "LAD with the z=10 outlier:" in proc.stdout
