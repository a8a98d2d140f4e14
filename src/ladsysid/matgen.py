"""Input sequences, structured regressor assembly, and noise/outlier sampling.

All sampling goes through numpy's PCG64 ``Generator`` seeded from a
``SeedSequence``.  Sub-streams are derived by mixing integer tags into the
seed material (``SeedSequence([seed, *tags])``), so the input, noise and
outlier draws of one trial are statistically independent streams: changing
the noise spec never perturbs the input sequence or the outlier support.
Gaussian variates use numpy's ziggurat rejection sampler
(``Generator.standard_normal``), gamma variates the Marsaglia-Tsang
rejection scheme (``Generator.standard_gamma``), exponential variates the
ziggurat sampler (``Generator.standard_exponential``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, SpecError

__all__ = [
    "InputDist",
    "RegressorMatrix",
    "NoiseSpec",
    "Magnitude",
    "OutlierSpec",
    "derive_seed",
    "rng_from_seed",
    "sample_input",
    "build_regressor",
    "sample_noise",
    "sample_outliers",
]


def _seed(seed) -> int:
    """``seed`` as an int; SpecError when it is negative, which numpy's
    SeedSequence would refuse with a bare ValueError."""
    seed = int(seed)
    if seed < 0:
        raise SpecError(f"a seed must be >= 0, got {seed}")
    return seed


def derive_seed(seed: int, *tags: int) -> int:
    """Mix integer tags into ``seed`` and return a fresh 64-bit sub-seed."""
    ss = np.random.SeedSequence([_seed(seed), *[int(t) for t in tags]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def rng_from_seed(seed: int) -> np.random.Generator:
    """PCG64 generator initialized from one integer seed."""
    return np.random.default_rng(np.random.SeedSequence(_seed(seed)))


def _coerce(spec, floats=(), ints=()) -> None:
    """Set the named fields of a frozen spec to float, or to int from an
    integral number (3 and 3.0 give 3; 3.5 is a SpecError).  A bool, as JSON's
    true, is a SpecError rather than 1."""
    for name in (*floats, *ints):
        if isinstance(getattr(spec, name), bool):
            raise SpecError(f"{name} must be a number, got {getattr(spec, name)!r}")
    for name in floats:
        object.__setattr__(spec, name, float(getattr(spec, name)))
    for name in ints:
        value = getattr(spec, name)
        if not (isinstance(value, (int, np.integer))
                or isinstance(value, float) and value.is_integer()):
            raise SpecError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(spec, name, int(value))


def _check_params(spec, what: str, params, used=()) -> None:
    """Of the fields ``params``, those in ``used`` must be positive and the
    others, which ``what`` does not use, must keep their defaults:
    {"kind": "none", "sigma": 2} is a SpecError, not a noiseless spec."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name in used and not value > 0:
            raise SpecError(f"{what} requires {f.name} > 0")
        if f.name in params and f.name not in used and value != f.default:
            raise SpecError(f"{what} does not use {f.name}, got {value!r}")


# ---------------------------------------------------------------------------
# input sequences and the regressor matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InputDist:
    """Input sample distribution: ``gaussian`` (scale sigma) or ``bernoulli_pm1``."""

    kind: str
    sigma: float = 1.0

    def __post_init__(self):
        _coerce(self, floats=("sigma",))
        if self.kind not in ("gaussian", "bernoulli_pm1"):
            raise SpecError(f"unknown input distribution {self.kind!r}")
        _check_params(self, f"{self.kind} input", ("sigma",),
                      ("sigma",) if self.kind == "gaussian" else ())

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "InputDist":
        return cls("gaussian", sigma)

    @classmethod
    def bernoulli_pm1(cls) -> "InputDist":
        return cls("bernoulli_pm1")


@dataclass(frozen=True)
class RegressorMatrix:
    """n-by-m regressor built from one input sequence.

    Entry (i, j) equals the input sample with logical index i+j-m
    (1-based i, j), so the matrix is constant along anti-diagonals and
    depends on exactly n+m-1 distinct scalars.
    """

    entries: np.ndarray
    n: int
    m: int

    @property
    def shape(self) -> tuple:
        return (self.n, self.m)


def sample_input(dist: InputDist, n: int, m: int, seed: int) -> np.ndarray:
    """Draw the n+m-1 i.i.d. input samples for an n-by-m regressor, as a
    read-only array whose entry ``p`` holds the sample with logical index
    ``p - m + 2``: entry 0 is the earliest sample and entry -1 the latest."""
    if m < 1 or n < m:
        raise DimensionError(f"need n >= m >= 1, got n={n}, m={m}")
    rng = rng_from_seed(seed)
    size = n + m - 1
    if dist.kind == "gaussian":
        values = dist.sigma * rng.standard_normal(size)
    else:
        values = rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
    values.flags.writeable = False
    return values


def build_regressor(h, n: int, m: int) -> RegressorMatrix:
    """Assemble the regressor matrix from a length n+m-1 input sequence.

    Row 1 reads the m earliest samples, row n the m latest; consecutive rows
    shift the window by one.  Degenerate shapes with n < m are permitted here
    (a single-row matrix is still well formed); the estimators enforce n >= m.
    """
    if m < 1 or n < 1:
        raise DimensionError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    values = np.asarray(h, dtype=float)
    if values.ndim != 1 or len(values) != n + m - 1:
        raise DimensionError(
            f"input sequence has length {values.shape}, expected {n + m - 1}"
        )
    # C-ordered, as a Hankel constructor lays it out: the memory order fixes
    # the bits of every product with the matrix
    entries = np.lib.stride_tricks.sliding_window_view(values, m).copy()
    entries.flags.writeable = False
    return RegressorMatrix(entries=entries, n=int(n), m=int(m))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

#: the fields each noise kind uses
_NOISE_PARAMS = {"none": (), "gaussian": ("sigma",), "gamma": ("shape", "scale"),
                 "exponential": ("mean",)}


@dataclass(frozen=True)
class NoiseSpec:
    """Additive observation-noise model.

    The three unit-energy presets used by the built-in experiments are
    ``gaussian(1)``, ``gamma(2, 1/sqrt(6))`` and ``exponential(sqrt(2)/2)``;
    each has E[w^2] = 1.  Gamma and exponential draws are taken raw (not
    re-centered), so those noises are nonnegative.
    """

    kind: str
    sigma: float = 0.0
    shape: float = 0.0
    scale: float = 0.0
    mean: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _coerce(self, floats=("sigma", "shape", "scale", "mean"), ints=("seed",))
        if self.kind not in _NOISE_PARAMS:
            raise SpecError(f"unknown noise kind {self.kind!r}")
        _check_params(self, f"{self.kind} noise", ("sigma", "shape", "scale", "mean"),
                      _NOISE_PARAMS[self.kind])

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls("none")

    @classmethod
    def gaussian(cls, sigma: float, seed: int = 0) -> "NoiseSpec":
        return cls("gaussian", sigma=sigma, seed=seed)

    @classmethod
    def gamma(cls, shape: float, scale: float, seed: int = 0) -> "NoiseSpec":
        return cls("gamma", shape=shape, scale=scale, seed=seed)

    @classmethod
    def exponential(cls, mean: float, seed: int = 0) -> "NoiseSpec":
        return cls("exponential", mean=mean, seed=seed)


def sample_noise(spec: NoiseSpec, n: int) -> np.ndarray:
    """Draw n i.i.d. noise samples according to ``spec``."""
    if n < 0:
        raise DimensionError(f"need n >= 0, got {n}")
    if spec.kind == "none":
        return np.zeros(n)
    rng = rng_from_seed(spec.seed)
    if spec.kind == "gaussian":
        return spec.sigma * rng.standard_normal(n)
    if spec.kind == "gamma":
        return spec.scale * rng.standard_gamma(spec.shape, size=n)
    return spec.mean * rng.standard_exponential(n)


# ---------------------------------------------------------------------------
# outliers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Magnitude:
    """Gaussian magnitude model for nonzero outlier entries."""

    mean: float
    sd: float

    def __post_init__(self):
        _coerce(self, floats=("mean", "sd"))
        if not self.sd > 0:
            raise SpecError("outlier magnitude requires sd > 0")


@dataclass(frozen=True)
class OutlierSpec:
    """Sparse gross-error model: a count model plus a magnitude model.

    ``fixed(k)`` puts exactly k outliers; ``uniform_fraction(f)`` draws the
    count as round(U * f * n) with U uniform on [0, 1] (round half up), so
    the average corrupted fraction is f/2.  The support is a uniform random
    k-subset of the rows.  The count model's own field must be given and the
    other one left at None.
    """

    count_model: str
    k: int | None = None
    max_fraction: float | None = None
    magnitude: Magnitude = Magnitude(100.0, 50.0)
    seed: int = 0

    def __post_init__(self):
        if self.count_model not in ("fixed", "uniform_fraction"):
            raise SpecError(f"unknown count model {self.count_model!r}")
        fixed = self.count_model == "fixed"
        used, unused = ("k", "max_fraction") if fixed else ("max_fraction", "k")
        what = f"{self.count_model} count model"
        _check_params(self, what, (unused,))
        if getattr(self, used) is None:
            raise SpecError(f"{what} requires {used}")
        _coerce(self, floats=() if fixed else (used,), ints=(used, "seed") if fixed else ("seed",))
        if fixed and self.k < 0:
            raise SpecError("fixed outlier count must be >= 0")
        if not fixed and not 0 <= self.max_fraction <= 1:
            raise SpecError("max_fraction must lie in [0, 1]")

    @classmethod
    def fixed(cls, k: int, magnitude: Magnitude = Magnitude(100.0, 50.0),
              seed: int = 0) -> "OutlierSpec":
        return cls("fixed", k=k, magnitude=magnitude, seed=seed)

    @classmethod
    def uniform_fraction(cls, max_fraction: float,
                         magnitude: Magnitude = Magnitude(100.0, 50.0),
                         seed: int = 0) -> "OutlierSpec":
        return cls("uniform_fraction", max_fraction=max_fraction,
                   magnitude=magnitude, seed=seed)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def sample_outliers(spec: OutlierSpec, n: int) -> np.ndarray:
    """Draw a length-n outlier vector: k nonzeros at distinct random rows.

    Draw order is count, support, magnitudes, so the realized support does
    not depend on the magnitude parameters.
    """
    if n < 0:
        raise DimensionError(f"need n >= 0, got {n}")
    rng = rng_from_seed(spec.seed)
    if spec.count_model == "fixed":
        k = spec.k
    else:
        k = _round_half_up(rng.uniform() * spec.max_fraction * n)
    if k > n:
        raise SpecError(f"outlier count {k} exceeds n={n}")
    e = np.zeros(n)
    if k > 0:
        support = rng.choice(n, size=k, replace=False)
        e[support] = rng.normal(spec.magnitude.mean, spec.magnitude.sd, size=k)
    return e
