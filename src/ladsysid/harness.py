"""Experiment orchestration: scenarios, seeded trials, sweeps, CSV output.

A sweep is its list of scenarios, one per grid point in increasing n.
Determinism contract: the full output of an experiment is a pure function of
(config, master seed).  The seed for trial t of the i-th scenario is
``derive_seed(master_seed, i, t)``; inside a trial, the input, parameter,
noise and outlier draws use sub-seeds derived from the trial seed with fixed
role tags, so changing one part of a scenario (say the noise kind) never
perturbs the draws of the others.

Experiments run trials sequentially; all operations are pure, so callers may
distribute (scenario, seed) pairs across processes, and output ordering is
canonical (sorted by n, trial, estimator) regardless of execution order.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .errors import ConfigError, LadSysIdError, SpecError
from .matgen import (InputDist, Magnitude, NoiseSpec, OutlierSpec, _coerce, _count, _real,
                     build_regressor, derive_seed, rng_from_seed, sample_input,
                     sample_noise, sample_outliers)
from .solver import l2_norm, lad_estimate, ls_estimate

__all__ = [
    "XSource",
    "Scenario",
    "EstimatorRun",
    "TrialRecord",
    "TrialRow",
    "SummaryRow",
    "ExperimentConfig",
    "ExperimentResult",
    "run_trial",
    "run_experiment",
    "Table1",
    "scenario_table1",
    "emit_csv",
    "read_trials_csv",
    "trial_rows",
    "consistency_scenario",
    "consistency_config",
    "fir_scenario",
    "fir_config",
    "snr_db",
    "load_config",
    "config_from_dict",
]

# role tags for per-trial sub-seed derivation
ROLE_INPUT, ROLE_PARAM, ROLE_NOISE, ROLE_OUTLIER = 1, 2, 3, 4

_ESTIMATORS = {"lad": lad_estimate, "ls": ls_estimate}


@dataclass(frozen=True)
class XSource:
    """True-parameter source: a fresh standard Gaussian draw or a fixed vector.

    The fixed vector must be real (a complex one is a DimensionError), and
    one-dimensional (a scalar is the vector of one entry) and finite, or it
    is a SpecError.
    """

    kind: str                       # gaussian_random | fixed
    vector: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("gaussian_random", "fixed"):
            raise SpecError(f"unknown x source {self.kind!r}")
        if self.kind == "fixed" and self.vector is None:
            raise SpecError("fixed x source requires a vector")
        if self.vector is not None:
            vector = np.atleast_1d(_real("vector", self.vector))
            if vector.ndim != 1:
                raise SpecError(
                    f"fixed x vector must be one-dimensional, got shape {vector.shape}")
            if not np.isfinite(vector).all():
                raise SpecError("fixed x vector must be finite (found NaN or inf)")
            object.__setattr__(self, "vector", tuple(float(v) for v in vector))

    @classmethod
    def gaussian_random(cls) -> "XSource":
        return cls("gaussian_random")

    @classmethod
    def fixed(cls, vector) -> "XSource":
        return cls("fixed", vector)


@dataclass(frozen=True)
class Scenario:
    """One observation model y = Hx + e + w plus the estimators to run."""

    name: str
    n: int
    m: int
    input: InputDist
    x_source: XSource
    noise: NoiseSpec
    outliers: OutlierSpec
    estimators: tuple = ("lad", "ls")

    def __post_init__(self):
        _coerce(self, ints=("n", "m"))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.m < 1 or self.n < self.m:
            raise SpecError(f"need n >= m >= 1, got n={self.n}, m={self.m}")
        if not self.estimators:
            raise SpecError("at least one estimator must be selected")
        unknown = set(self.estimators) - set(_ESTIMATORS)
        if unknown:
            raise SpecError(f"unknown estimators {sorted(unknown)}")
        if self.x_source.kind == "fixed" and len(self.x_source.vector) != self.m:
            raise SpecError("fixed x vector length must equal m")


@dataclass
class EstimatorRun:
    estimator: str
    x_hat: Optional[np.ndarray]
    error_l2: float
    objective: float
    status: str
    wall_ms: float


@dataclass
class TrialRecord:
    scenario_id: str
    n: int
    m: int
    trial: int
    seed: int
    k: int                         # realized outlier count
    runs: list


def _draw_trial(s: Scenario, seed: int):
    h = sample_input(s.input, s.n, s.m, derive_seed(seed, ROLE_INPUT))
    H = build_regressor(h, s.n, s.m)
    if s.x_source.kind == "gaussian_random":
        x = rng_from_seed(derive_seed(seed, ROLE_PARAM)).standard_normal(s.m)
    else:
        x = np.array(s.x_source.vector, dtype=float)
    w = sample_noise(replace(s.noise, seed=derive_seed(seed, ROLE_NOISE)), s.n)
    e = sample_outliers(replace(s.outliers, seed=derive_seed(seed, ROLE_OUTLIER)), s.n)
    return H, x, e, w


def run_trial(s: Scenario, seed: int, trial_index: int = 0) -> TrialRecord:
    """Draw one instance of the scenario and run every selected estimator.

    Solver errors, typed or raised by numpy's linear algebra, are recorded
    in the per-estimator status instead of aborting the sweep.
    """
    H, x, e, w = _draw_trial(s, seed)
    y = H.entries @ x + e + w
    runs = []
    for name in s.estimators:
        fn = _ESTIMATORS[name]
        t0 = time.perf_counter()
        try:
            est = fn(H, y)
            x_hat, objective, status = est.x_hat, est.objective, est.status
        except (LadSysIdError, np.linalg.LinAlgError) as exc:
            x_hat, objective, status = None, float("nan"), f"error:{type(exc).__name__}"
        wall = (time.perf_counter() - t0) * 1e3
        runs.append(EstimatorRun(
            estimator=name,
            x_hat=x_hat,
            error_l2=float("nan") if x_hat is None else l2_norm(x_hat - x),
            objective=objective,
            status=status,
            wall_ms=wall,
        ))
    return TrialRecord(
        scenario_id=s.name, n=s.n, m=s.m, trial=trial_index, seed=seed,
        k=int(np.count_nonzero(e)), runs=runs,
    )


# ---------------------------------------------------------------------------
# experiment sweeps
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """A sweep: one Scenario per grid point, in strictly increasing n, each
    run for ``trials_per_point`` seeded trials."""

    scenarios: Sequence[Scenario]
    trials_per_point: int = 10
    master_seed: int = 0
    out_path: Optional[str] = None

    def __post_init__(self):
        _coerce(self, ints=("trials_per_point", "master_seed"))
        if not self.scenarios:
            raise ConfigError("a sweep needs at least one scenario")
        if any(b.n <= a.n for a, b in zip(self.scenarios, self.scenarios[1:])):
            raise ConfigError("the scenarios' n must be strictly increasing")
        if self.trials_per_point < 1:
            raise ConfigError("trials_per_point must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class TrialRow:
    """One CSV line of an experiment: a single estimator on a single trial."""

    scenario_id: str
    n: int
    m: int
    trial: int
    estimator: str
    error_l2: float
    objective: float
    k: int
    status: str
    wall_ms: float


@dataclass(frozen=True)
class SummaryRow:
    n: int
    estimator: str
    noise_kind: str
    mean_error: float
    median_error: float
    trials: int


@dataclass
class ExperimentResult:
    records: list
    rows: list
    summary: list

    def mean_error(self, n: int, estimator: str) -> float:
        for row in self.summary:
            if row.n == n and row.estimator == estimator:
                return row.mean_error
        raise KeyError((n, estimator))


def trial_rows(records: Sequence[TrialRecord]) -> list:
    rows = [TrialRow(scenario_id=rec.scenario_id, n=rec.n, m=rec.m, trial=rec.trial,
                     estimator=run.estimator, error_l2=run.error_l2,
                     objective=run.objective, k=rec.k, status=run.status,
                     wall_ms=run.wall_ms)
            for rec in records for run in rec.runs]
    return sorted(rows, key=lambda r: (r.n, r.trial, r.estimator))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the sweep; aggregate mean/median error per (n, estimator).

    Writes the trial CSV to ``cfg.out_path`` (plus a ``.summary.csv``
    sibling) when an output path is configured.  The output path is probed
    before any compute so an unwritable location fails fast.
    """
    out = Path(cfg.out_path) if cfg.out_path else None
    if out is not None:
        with open(out, "w"):
            pass

    records = []
    for i, scen in enumerate(cfg.scenarios):
        for t in range(cfg.trials_per_point):
            seed = derive_seed(cfg.master_seed, i, t)
            records.append(run_trial(scen, seed, trial_index=t))

    rows = trial_rows(records)
    summary = []
    for scen in cfg.scenarios:
        for est in scen.estimators:
            errs = [r.error_l2 for r in rows
                    if r.n == scen.n and r.estimator == est and np.isfinite(r.error_l2)]
            if not errs:
                continue
            summary.append(SummaryRow(
                n=scen.n, estimator=est, noise_kind=scen.noise.kind,
                mean_error=float(np.mean(errs)),
                median_error=float(np.median(errs)),
                trials=len(errs),
            ))

    if out is not None:
        emit_csv(rows, out)
        emit_csv(summary, out.with_suffix(".summary.csv"), SummaryRow)
    return ExperimentResult(records=records, rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(rows: Sequence, path, row_type=TrialRow) -> None:
    """Write ``row_type`` rows as RFC-4180 CSV with 17-significant-digit floats.

    The columns are the fields of ``row_type``, so an empty row list still
    gets its header.
    """
    names = [f.name for f in dataclasses.fields(row_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([_fmt(getattr(row, name)) for name in names])


def read_trials_csv(path) -> list:
    """Parse a trial CSV back into TrialRow records (exact float round-trip)."""
    casts = get_type_hints(TrialRow)
    with open(path, newline="") as fh:
        return [TrialRow(**{name: cast(rec[name]) for name, cast in casts.items()})
                for rec in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

_NOISE_PRESETS = {
    "gaussian": NoiseSpec.gaussian(1.0),
    "gamma": NoiseSpec.gamma(2.0, 1.0 / np.sqrt(6.0)),
    "exponential": NoiseSpec.exponential(np.sqrt(2.0) / 2.0),
}


def consistency_scenario(noise_kind: str, n: int) -> Scenario:
    """Consistency-under-noise scenario: m=5, half the rows carry N(0,100) outliers.

    The three noise presets (gaussian sigma 1, gamma(2, 1/sqrt 6),
    exponential mean sqrt(2)/2) share unit second moment E[w^2] = 1.
    """
    if noise_kind not in _NOISE_PRESETS:
        raise ConfigError(f"noise kind must be one of {sorted(_NOISE_PRESETS)}")
    return Scenario(
        name=f"consistency_{noise_kind}",
        n=n, m=5,
        input=InputDist.gaussian(1.0),
        x_source=XSource.gaussian_random(),
        noise=_NOISE_PRESETS[noise_kind],
        outliers=OutlierSpec.fixed(n // 2, magnitude=Magnitude(0.0, 10.0)),
        estimators=("lad",),
    )


def consistency_config(noise_kind: str, n_grid=(100, 300, 1000), trials_per_point=10,
                   master_seed=0, out_path=None) -> ExperimentConfig:
    return ExperimentConfig([consistency_scenario(noise_kind, n) for n in n_grid],
                            trials_per_point, master_seed, out_path)


def fir_scenario(n: int) -> Scenario:
    """Five-tap FIR identification: strong input, small noise, 10% outliers on average."""
    return Scenario(
        name="fir",
        n=n, m=5,
        input=InputDist.gaussian(2.0),
        x_source=XSource.gaussian_random(),
        noise=NoiseSpec.gaussian(0.2),
        outliers=OutlierSpec.uniform_fraction(0.2, magnitude=Magnitude(100.0, 50.0)),
        estimators=("lad", "ls"),
    )


def fir_config(n_grid=(100, 200, 500, 1000), trials_per_point=10,
               master_seed=0, out_path=None) -> ExperimentConfig:
    return ExperimentConfig([fir_scenario(n) for n in n_grid],
                            trials_per_point, master_seed, out_path)


def snr_db(s: Scenario, trials: int, master_seed: int) -> float:
    """Signal-to-corruption ratio on the corrupted observations, in dB.

    Pools signal power sum_K (Hx)_i^2 against corruption power
    sum_K (e+w)_i^2 over the outlier support K across seeded trials.  This
    is the ratio the corrupted measurements see; with N(100, 50^2) outlier
    magnitudes it sits near -28 dB regardless of n.  ``trials`` must be a
    whole number >= 1 (DimensionError otherwise).
    """
    trials = _count("trials", trials, 1)
    sig = 0.0
    cor = 0.0
    for t in range(trials):
        H, x, e, w = _draw_trial(s, derive_seed(master_seed, 0, t))
        support = np.nonzero(e)[0]
        clean = H.entries @ x
        sig += float(np.sum(clean[support] ** 2))
        cor += float(np.sum((e + w)[support] ** 2))
    if cor == 0.0:
        raise SpecError("scenario produced no outliers; SNR undefined")
    return 10.0 * np.log10(sig / cor)


# ---------------------------------------------------------------------------
# the printed 11-point line-fit dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1:
    """The printed limited-data line-fit set: y = k z + b at z = 0..10.

    ``y_clean`` is the dataset as measured; ``y_outlier`` replaces the z=10
    observation 1.9975 with 11.9975.  The regressor has columns (z, 1) and
    the true parameters are (0.2, 0.2).
    """

    z: np.ndarray
    y_clean: np.ndarray
    y_outlier: np.ndarray
    x_true: np.ndarray

    def regressor(self) -> np.ndarray:
        return np.column_stack([self.z, np.ones_like(self.z)])


def scenario_table1() -> Table1:
    z = np.arange(11.0)
    y = np.array([0.1779, 0.4555, 0.6174, 0.8347, 1.0907, 1.0793,
                  1.2406, 1.6721, 2.1770, 1.9386, 1.9975])
    y_out = y.copy()
    y_out[10] = 11.9975
    for arr in (z, y, y_out):
        arr.flags.writeable = False
    return Table1(z=z, y_clean=y, y_outlier=y_out, x_true=np.array([0.2, 0.2]))


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_BUILTIN_CONFIGS = {
    "consistency_gaussian": partial(consistency_config, "gaussian"),
    "consistency_gamma": partial(consistency_config, "gamma"),
    "consistency_exponential": partial(consistency_config, "exponential"),
    "fir": fir_config,
}


def _object(d) -> dict:
    """An object of a config file, which may not set a seed: the harness
    derives every sub-seed per trial and would overwrite it."""
    if not isinstance(d, dict):
        raise ConfigError(f"the config root and each spec must be an object, got {d!r}")
    if "seed" in d:
        raise ConfigError("no object may set a seed: every trial derives its own from master_seed")
    return d


def _outliers_from_dict(d: dict) -> OutlierSpec:
    """The outlier object is flat: its ``mean`` and ``sd`` are the Magnitude's."""
    rest = {key: v for key, v in d.items() if key not in ("mean", "sd")}
    return OutlierSpec(**rest, magnitude=Magnitude(d.get("mean", 100.0), d.get("sd", 50.0)))


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON dict (see README schema).

    The root holds ``builtin`` and that builtin's keyword arguments, or
    ``scenario``, ``n_grid`` and ExperimentConfig's other fields, with
    ``out`` for ``out_path``.  Each object is passed as keyword arguments,
    so an unknown key is a ConfigError like any bad value.
    """
    if "out_path" in _object(d):
        raise ConfigError("the output path's key is 'out'")
    rest = dict(d)
    if "out" in rest:
        rest["out_path"] = rest.pop("out")
    try:
        if "builtin" in rest:
            name = rest.pop("builtin")
            if name not in _BUILTIN_CONFIGS:
                raise ConfigError(
                    f"unknown builtin {name!r}; choose from {sorted(_BUILTIN_CONFIGS)}")
            return _BUILTIN_CONFIGS[name](**rest)
        sd = {"name": "scenario", "x_source": {"kind": "gaussian_random"},
              "noise": {"kind": "none"}, **_object(rest.pop("scenario"))}
        sd.update(input=InputDist(**_object(sd["input"])),
                  x_source=XSource(**_object(sd["x_source"])),
                  noise=NoiseSpec(**_object(sd["noise"])),
                  outliers=_outliers_from_dict(_object(sd["outliers"])))
        return ExperimentConfig([Scenario(n=n, **sd) for n in rest.pop("n_grid")], **rest)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, SpecError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)
