"""The benchmark's span tracer against the package it wraps.

``perfbench/tracing.py`` replaces package attributes by name, so renaming a
wrapped function or table entry breaks every traced benchmark run.  This
installs the tracer, runs two small trials that reach the vertex-certificate
LP and one exact certification, and checks that uninstalling restores every
original.
"""

import importlib.util
from pathlib import Path

import pytest

import ladsysid.cli
import ladsysid.harness
from ladsysid import derive_seed

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TRIALS = (9, 19)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(site):
    module, attr, key = site[:3]
    return module._ESTIMATORS[key] if attr is None else getattr(module, attr)


def test_install_wraps_every_site_and_uninstall_restores(tracing, capsys):
    originals = [current(site) for site in tracing._SITES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(current(site) is not orig
                   for site, orig in zip(tracing._SITES, originals))
        scen = ladsysid.harness.config_from_dict({"scenario": {
            "m": 5, "input": {"kind": "bernoulli_pm1"}, "noise": {"kind": "none"},
            "outliers": {"count_model": "uniform_fraction", "max_fraction": 0.8,
                         "mean": 0.0, "sd": 10.0}}, "n_grid": [100]}).scenarios[0]
        # the Gram route decides most vertex checks; trials 9 and 19 of this
        # grid point still leave one each to the LP (found by counting the
        # solver.solve_lp calls of trials 0-59)
        for t in TRIALS:
            ladsysid.harness.run_trial(scen, derive_seed(1, 100, t), t)
        assert ladsysid.cli.main(["certify", "--n", "12", "--m", "2", "--support", "0,5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(current(site) is orig for site, orig in zip(tracing._SITES, originals))

    names = {span["name"] for span in tracer.spans}
    assert {"harness.run_trial", "matgen.sample_input", "solver.lad", "solver.ls",
            "solver.vertex_check", "lp.vertex", "cert.exact"} <= names
    by_id = {span["id"]: span for span in tracer.spans}
    for span in tracer.spans:
        if span["name"] == "lp.vertex":
            assert by_id[span["parent"]]["name"] == "solver.vertex_check"
            assert span["iterations"] >= 0
    metrics = tracing.layer_metrics(tracer.spans, passes=1, trials=len(TRIALS), overhead_pct=0.0)
    assert metrics["lp.vertex.calls"][0] == sum(s["name"] == "lp.vertex" for s in tracer.spans)
