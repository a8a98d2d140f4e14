"""Output checks, run after the timed region.  A failed check marks its operation failed.

- Each LAD objective matches scipy HiGHS on the dual LP
  max y'u s.t. H'u = 0, |u| <= 1 to 1e-9 relative, plus 1e-12 ||y||_1 for
  objectives at rounding level (a trial that draws no outliers).
- Each falsified certificate's witness z has ||(Hz)_Kbar||_1 - ||(Hz)_K||_1 <= 0
  when recomputed with numpy.
- Each certified verdict is confirmed by HiGHS on the same sign-pattern LPs.
- ``strong_threshold(1..m_max)`` matches the frozen beta* table.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

from ladsysid import (InputDist, build_regressor, derive_seed, rng_from_seed,
                      sample_input, sample_noise, sample_outliers)
from ladsysid.harness import ROLE_INPUT, ROLE_NOISE, ROLE_OUTLIER, ROLE_PARAM

# beta*(m) from a dense brute-force grid scan, the same constants as the
# acceptance test (copied, not imported).
BETA_STAR_FROZEN = {
    1: 0.168393, 2: 0.026029, 3: 0.010130, 4: 0.005287, 5: 0.003209,
    6: 0.002129, 7: 0.001508, 8: 0.001118, 9: 0.000863, 10: 0.000681,
}
LAD_REL_TOL = 1e-9
MARGIN = 1e-8          # certify_support_exact's default margin


class CheckError(Exception):
    pass


def _draw(s, seed):
    """Regenerate one trial's H, x, y from the harness's documented seed contract."""
    h = sample_input(s.input, s.n, s.m, derive_seed(seed, ROLE_INPUT))
    A = build_regressor(h, s.n, s.m).entries
    if s.x_source.kind == "gaussian_random":
        x = rng_from_seed(derive_seed(seed, ROLE_PARAM)).standard_normal(s.m)
    else:
        x = np.array(s.x_source.vector, dtype=float)
    w = sample_noise(replace(s.noise, seed=derive_seed(seed, ROLE_NOISE)), s.n)
    e = sample_outliers(replace(s.outliers, seed=derive_seed(seed, ROLE_OUTLIER)), s.n)
    return A, x, A @ x + e + w


def lad_dual_objective(A, y) -> float:
    res = linprog(-y, A_eq=scipy.sparse.csr_array(A.T), b_eq=np.zeros(A.shape[1]),
                  bounds=(-1.0, 1.0), method="highs-ipm",
                  options={"presolve": False})
    if res.status != 0:
        raise CheckError(f"HiGHS dual LP ended with status {res.status}")
    return -res.fun


def _close(a, b, rel, floor=1e-300) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def check_sweep(passes, log):
    """Check every trial; returns (recovered, lad_trials) over the first pass.

    A trial that repeats (a traced pass repeats an untraced one) is checked
    against the HiGHS value already computed for it.
    """
    reference = {}
    recovered = lad_trials = 0
    for p in passes:
        for op in p.ops:
            if not op.ok:
                continue
            s, seed, rec = op.data
            key = seed
            try:
                if key not in reference:
                    A, x, y = _draw(s, seed)
                    reference[key] = (lad_dual_objective(A, y),
                                      1e-12 * float(np.abs(y).sum()))
                    new = True
                else:
                    new = False
                for run in rec.runs:
                    if run.status != "optimal":
                        raise CheckError(f"{run.estimator} status {run.status}")
                    if run.estimator != "lad":
                        continue
                    highs, floor = reference[key]
                    if not _close(run.objective, highs, LAD_REL_TOL, floor):
                        raise CheckError(f"LAD objective {run.objective!r} vs HiGHS {highs!r}")
                    if new:
                        err = float(np.linalg.norm(run.x_hat - x))
                        if not _close(err, run.error_l2, 1e-12):
                            raise CheckError("regenerated x does not match the trial")
                        if p is passes[0]:
                            lad_trials += 1
                            recovered += err <= 1e-6 * np.linalg.norm(x)
            except CheckError as exc:
                op.ok = False
                log(f"check failed: n={rec.n} trial={rec.trial}: {exc}")
    return recovered, lad_trials


def _regressor(n, m, input_seed):
    return build_regressor(sample_input(InputDist.gaussian(1.0), n, m, input_seed), n, m).entries


def pattern_lp_best(A, support) -> float:
    """max over sign patterns of max sigma'(Hz)_K s.t. ||(Hz)_Kbar||_1 <= 1, by HiGHS."""
    n, m = A.shape
    on = np.zeros(n, dtype=bool)
    on[support] = True
    hk, hc = A[on], A[~on]
    nc = hc.shape[0]
    eye = np.eye(nc)
    a_ub = np.vstack([np.hstack([hc, -eye]), np.hstack([-hc, -eye]),
                      np.concatenate([np.zeros(m), np.ones(nc)])[None, :]])
    b_ub = np.zeros(2 * nc + 1)
    b_ub[-1] = 1.0
    bounds = [(None, None)] * m + [(0, None)] * nc
    best = -np.inf
    for tail in itertools.product((1.0, -1.0), repeat=len(support) - 1):
        sigma = np.array((1.0,) + tail)
        res = linprog(-np.concatenate([sigma @ hk, np.zeros(nc)]), A_ub=a_ub, b_ub=b_ub,
                      bounds=bounds, method="highs")
        if res.status == 3:
            return np.inf
        if res.status != 0:
            raise CheckError(f"HiGHS pattern LP ended with status {res.status}")
        best = max(best, -res.fun)
    return best


def _witness_gap(A, support, z) -> float:
    v = np.abs(A @ z)
    return float(v.sum() - 2.0 * v[support].sum())


def check_analysis(passes, log):
    best_cache = {}
    for p in passes:
        for op in p.ops:
            if not op.ok:
                continue
            try:
                if op.kind == "threshold":
                    _check_thresholds(op.data)
                else:
                    _check_cert(op.kind, *op.data, best_cache)
            except CheckError as exc:
                op.ok = False
                log(f"check failed: {op.kind}: {exc}")


def _check_cert(kind, case, cert, best_cache):
    n, m, support, input_seed, expect = case
    if expect is not None and cert.verdict != expect:
        raise CheckError(f"verdict {cert.verdict}, expected {expect}")
    A = _regressor(n, m, input_seed)
    if cert.verdict == "falsified":
        z = np.asarray(cert.witness, dtype=float)
        if not np.any(z):
            raise CheckError("zero witness")
        gap = _witness_gap(A, support, z)
        if gap > 0:
            raise CheckError(f"witness gap {gap!r} > 0")
        return
    key = (n, m, tuple(support), input_seed)
    if key not in best_cache:
        best_cache[key] = pattern_lp_best(A, support)
    best = best_cache[key]
    if kind == "exact":
        if not best < 1.0 - MARGIN:
            raise CheckError(f"certified but HiGHS pattern optimum {best!r} >= 1")
        if abs((1.0 - best) - cert.worst_gap) > 1e-6:
            raise CheckError(f"worst_gap {cert.worst_gap!r} vs HiGHS {1.0 - best!r}")
    elif 0 < best < np.inf and cert.worst_gap < 1.0 / best - 1.0 - 1e-9:
        # every direction's ||(Hz)_Kbar|| / ||(Hz)_K|| - 1 is at least 1/best - 1
        raise CheckError(f"sampled gap {cert.worst_gap!r} below the exact bound {1 / best - 1!r}")


def _check_thresholds(betas):
    if sorted(betas) != list(range(1, len(betas) + 1)):
        raise CheckError(f"threshold rows for m = {sorted(betas)}")
    for m, beta in betas.items():
        if abs(beta - BETA_STAR_FROZEN[m]) > 1e-4:
            raise CheckError(f"beta*({m}) = {beta!r}, frozen {BETA_STAR_FROZEN[m]}")
