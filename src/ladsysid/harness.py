"""Experiment orchestration: scenarios, seeded trials, sweeps, CSV output.

Determinism contract: the full output of an experiment is a pure function of
(config, master seed).  The seed for trial t at grid point i is
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
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, LadSysIdError, SpecError
from .matgen import (InputDist, Magnitude, NoiseSpec, OutlierSpec,
                     build_regressor, derive_seed, rng_from_seed, sample_input,
                     sample_noise, sample_outliers)
from .solver import Estimate, l2_norm, lad_estimate, ls_estimate

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
    """True-parameter source: a fresh standard Gaussian draw or a fixed vector."""

    kind: str                       # gaussian_random | fixed
    vector: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("gaussian_random", "fixed"):
            raise SpecError(f"unknown x source {self.kind!r}")
        if self.kind == "fixed" and self.vector is None:
            raise SpecError("fixed x source requires a vector")

    @classmethod
    def gaussian_random(cls) -> "XSource":
        return cls("gaussian_random")

    @classmethod
    def fixed(cls, vector) -> "XSource":
        return cls("fixed", tuple(float(v) for v in np.atleast_1d(vector)))


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
            est: Estimate = fn(H, y)
            wall = (time.perf_counter() - t0) * 1e3
            runs.append(EstimatorRun(
                estimator=name,
                x_hat=est.x_hat,
                error_l2=l2_norm(est.x_hat - x),
                objective=est.objective,
                status=est.status,
                wall_ms=wall,
            ))
        except (LadSysIdError, np.linalg.LinAlgError) as exc:
            wall = (time.perf_counter() - t0) * 1e3
            runs.append(EstimatorRun(
                estimator=name,
                x_hat=None,
                error_l2=float("nan"),
                objective=float("nan"),
                status=f"error:{type(exc).__name__}",
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
    """A scenario template swept over n with seeded repeated trials.

    ``scenario_factory``, when given, maps each grid n to the Scenario to
    run (used by built-ins whose outlier count scales with n); otherwise the
    template's n field is replaced per grid point.
    """

    scenario: Scenario
    n_grid: Sequence[int]
    trials_per_point: int = 10
    master_seed: int = 0
    out_path: Optional[str] = None
    scenario_factory: Optional[Callable[[int], Scenario]] = None

    def __post_init__(self):
        grid = list(self.n_grid)
        if not grid:
            raise ConfigError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        if self.trials_per_point < 1:
            raise ConfigError("trials_per_point must be >= 1")


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
    rows = []
    for rec in records:
        for run in rec.runs:
            rows.append(TrialRow(
                scenario_id=rec.scenario_id, n=rec.n, m=rec.m, trial=rec.trial,
                estimator=run.estimator, error_l2=run.error_l2,
                objective=run.objective, k=rec.k, status=run.status,
                wall_ms=run.wall_ms,
            ))
    rows.sort(key=lambda r: (r.n, r.trial, r.estimator))
    return rows


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
    for i, n in enumerate(cfg.n_grid):
        if cfg.scenario_factory is not None:
            scen = cfg.scenario_factory(n)
        else:
            scen = replace(cfg.scenario, n=n)
        for t in range(cfg.trials_per_point):
            seed = derive_seed(cfg.master_seed, i, t)
            records.append(run_trial(scen, seed, trial_index=t))

    rows = trial_rows(records)
    summary = []
    noise_kind = cfg.scenario.noise.kind
    for n in cfg.n_grid:
        for est in cfg.scenario.estimators:
            errs = [r.error_l2 for r in rows
                    if r.n == n and r.estimator == est and np.isfinite(r.error_l2)]
            if not errs:
                continue
            summary.append(SummaryRow(
                n=n, estimator=est, noise_kind=noise_kind,
                mean_error=float(np.mean(errs)),
                median_error=float(np.median(errs)),
                trials=len(errs),
            ))

    if out is not None:
        emit_csv(rows, out)
        emit_csv(summary, out.with_suffix(".summary.csv"))
    return ExperimentResult(records=records, rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(rows: Sequence, path) -> None:
    """Write dataclass rows as RFC-4180 CSV with 17-significant-digit floats.

    An empty row list still produces a header when rows carry a known type;
    the schema is taken from the first row's dataclass fields (TrialRow when
    empty).
    """
    rows = list(rows)
    row_type = type(rows[0]) if rows else TrialRow
    names = [f.name for f in dataclasses.fields(row_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([_fmt(getattr(row, name)) for name in names])


def read_trials_csv(path) -> list:
    """Parse a trial CSV back into TrialRow records (exact float round-trip)."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            out.append(TrialRow(
                scenario_id=rec["scenario_id"], n=int(rec["n"]), m=int(rec["m"]),
                trial=int(rec["trial"]), estimator=rec["estimator"],
                error_l2=float(rec["error_l2"]), objective=float(rec["objective"]),
                k=int(rec["k"]), status=rec["status"],
                wall_ms=float(rec["wall_ms"]),
            ))
    return out


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
    grid = list(n_grid)
    return ExperimentConfig(
        scenario=consistency_scenario(noise_kind, grid[0]),
        n_grid=grid,
        trials_per_point=trials_per_point,
        master_seed=master_seed,
        out_path=out_path,
        scenario_factory=lambda n: consistency_scenario(noise_kind, n),
    )


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
    grid = list(n_grid)
    return ExperimentConfig(
        scenario=fir_scenario(grid[0]),
        n_grid=grid,
        trials_per_point=trials_per_point,
        master_seed=master_seed,
        out_path=out_path,
        scenario_factory=fir_scenario,
    )


def snr_db(s: Scenario, trials: int, master_seed: int) -> float:
    """Signal-to-corruption ratio on the corrupted observations, in dB.

    Pools signal power sum_K (Hx)_i^2 against corruption power
    sum_K (e+w)_i^2 over the outlier support K across seeded trials.  This
    is the ratio the corrupted measurements see; with N(100, 50^2) outlier
    magnitudes it sits near -28 dB regardless of n.
    """
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
    "consistency_gaussian": lambda: consistency_config("gaussian"),
    "consistency_gamma": lambda: consistency_config("gamma"),
    "consistency_exponential": lambda: consistency_config("exponential"),
    "fir": fir_config,
}


def _input_from_dict(d: dict) -> InputDist:
    kind = d.get("kind")
    if kind == "gaussian":
        return InputDist.gaussian(d.get("sigma", 1.0))
    if kind == "bernoulli_pm1":
        return InputDist.bernoulli_pm1()
    raise ConfigError(f"unknown input kind {kind!r}")


def _noise_from_dict(d: dict) -> NoiseSpec:
    kind = d.get("kind")
    try:
        if kind == "none":
            return NoiseSpec.none()
        if kind == "gaussian":
            return NoiseSpec.gaussian(d["sigma"])
        if kind == "gamma":
            return NoiseSpec.gamma(d["shape"], d["scale"])
        if kind == "exponential":
            return NoiseSpec.exponential(d["mean"])
    except (KeyError, SpecError) as exc:
        raise ConfigError(f"bad noise spec: {exc}") from exc
    raise ConfigError(f"unknown noise kind {kind!r}")


def _outliers_from_dict(d: dict) -> OutlierSpec:
    model = d.get("count_model")
    mag = Magnitude(float(d.get("mean", 100.0)), float(d.get("sd", 50.0)))
    try:
        if model == "fixed":
            return OutlierSpec.fixed(int(d["k"]), magnitude=mag)
        if model == "uniform_fraction":
            return OutlierSpec.uniform_fraction(float(d["max_fraction"]), magnitude=mag)
    except (KeyError, SpecError) as exc:
        raise ConfigError(f"bad outlier spec: {exc}") from exc
    raise ConfigError(f"unknown outlier count model {model!r}")


def _x_source_from_dict(d: dict) -> XSource:
    kind = d.get("kind", "gaussian_random")
    if kind == "gaussian_random":
        return XSource.gaussian_random()
    if kind == "fixed":
        if "vector" not in d:
            raise ConfigError("fixed x source requires a vector")
        return XSource.fixed(d["vector"])
    raise ConfigError(f"unknown x source {kind!r}")


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON dict (see README schema)."""
    if not isinstance(d, dict):
        raise ConfigError("config root must be an object")
    try:
        if "builtin" in d:
            name = d["builtin"]
            if name not in _BUILTIN_CONFIGS:
                raise ConfigError(
                    f"unknown builtin {name!r}; choose from {sorted(_BUILTIN_CONFIGS)}")
            cfg = _BUILTIN_CONFIGS[name]()
            if "n_grid" in d:
                cfg = replace(cfg, n_grid=[int(v) for v in d["n_grid"]])
            if "trials_per_point" in d:
                cfg = replace(cfg, trials_per_point=int(d["trials_per_point"]))
            if "master_seed" in d:
                cfg = replace(cfg, master_seed=int(d["master_seed"]))
            if "out" in d:
                cfg = replace(cfg, out_path=d["out"])
            return cfg
        sd = d["scenario"]
        n_grid = [int(v) for v in d["n_grid"]]
        scen = Scenario(
            name=str(sd.get("name", "scenario")),
            n=int(sd.get("n", n_grid[0])),
            m=int(sd["m"]),
            input=_input_from_dict(sd["input"]),
            x_source=_x_source_from_dict(sd.get("x_source", {"kind": "gaussian_random"})),
            noise=_noise_from_dict(sd.get("noise", {"kind": "none"})),
            outliers=_outliers_from_dict(sd["outliers"]),
            estimators=tuple(sd.get("estimators", ["lad", "ls"])),
        )
        return ExperimentConfig(
            scenario=scen,
            n_grid=n_grid,
            trials_per_point=int(d.get("trials_per_point", 10)),
            master_seed=int(d.get("master_seed", 0)),
            out_path=d.get("out"),
        )
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
