import sys

import numpy as np
import pytest

import ladsysid._native
import ladsysid.solver
import ladsysid.threshold
from ladsysid import (SingularSystemError, consistency_scenario, derive_seed,
                      lad_estimate, strong_threshold)
from ladsysid._native import SOLVE_ERRSTATE, _scipy_extension, _scipy_routine, solve
from ladsysid.harness import _draw_trial, config_from_dict
from ladsysid.solver import _initial_basis
from oracles import NOISELESS_PM1


def not_found(monkeypatch, module):
    """Make ``_scipy_extension`` find no file for ``module``: ``find_spec`` finds
    no scipy, and ``module`` is out of ``sys.modules``.  Returns the names
    looked up."""
    looked_up = []

    def find_nothing(name):
        looked_up.append(name)
        return None
    monkeypatch.delitem(sys.modules, module, raising=False)
    monkeypatch.setattr(ladsysid._native, "find_spec", find_nothing)
    return looked_up


class TestSolvePath:
    """``solve`` runs np.linalg.solve's own gufunc; it must agree bit for bit,
    raise LinAlgError on a singular system, and the public-wrapper fallback
    must give the same estimates."""

    @staticmethod
    def systems(rng):
        for m in range(1, 11):
            for kind in ("gaussian", "pm1", "int"):
                for _ in range(30):
                    if kind == "gaussian":
                        a = rng.standard_normal((m, m))
                    elif kind == "pm1":
                        a = rng.choice([-1.0, 1.0], size=(m, m))
                    else:
                        a = rng.integers(-3, 4, size=(m, m)).astype(float)
                    yield a, rng.standard_normal(m)

    def test_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(21)
        solved = singular = 0
        with np.errstate(**SOLVE_ERRSTATE):
            for a, b in self.systems(rng):
                for mat in (a, a.T):
                    try:
                        expected = np.linalg.solve(mat, b)
                    except np.linalg.LinAlgError:
                        singular += 1
                        with pytest.raises(np.linalg.LinAlgError):
                            solve(mat, b)
                        continue
                    got = solve(mat, b)
                    assert got.dtype == expected.dtype and got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes()
                    solved += 1
        assert solved > 1000 and singular > 0

    def test_exactly_singular_raises(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        with np.errstate(**SOLVE_ERRSTATE):
            for mat in (a, a.T):
                with pytest.raises(np.linalg.LinAlgError):
                    solve(mat, np.ones(3))

    def test_public_solve_fallback_gives_same_estimates(self, monkeypatch):
        scen = config_from_dict({"scenario": NOISELESS_PM1, "n_grid": [100]}).scenarios[0]
        cases = [_draw_trial(scen, derive_seed(1, 1, t)) for t in range(5)]
        cases.append(_draw_trial(consistency_scenario("gaussian", 300), derive_seed(0, 0, 0)))
        problems = [(H, H.entries @ x + e + w) for H, x, e, w in cases]
        fast = [lad_estimate(H, y) for H, y in problems]

        calls = []
        public = np.linalg.solve

        def counted(a, b):
            calls.append(1)
            return public(a, b)
        monkeypatch.setattr(ladsysid.solver, "solve", counted)
        for (H, y), ref in zip(problems, fast):
            before = len(calls)
            est = lad_estimate(H, y)
            # lam at every pivot, d and x at every pivot that moves, x at the start
            assert len(calls) - before >= 2 * ref.iterations
            assert est.x_hat.tobytes() == ref.x_hat.tobytes()
            assert est.iterations == ref.iterations
            assert est.status == ref.status


class TestGeqp3Binding:
    """``_native.dgeqp3`` is LAPACK dgeqp3 loaded from scipy's ``_flapack``
    extension file: the same workspace query, R, tau and pivots as
    ``scipy.linalg.lapack.dgeqp3``, and, when the file cannot be found, the
    public import, which picks the same initial basis."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(13)
        for n, m in ((40, 1), (60, 3), (90, 5), (200, 7)):
            gauss = rng.standard_normal((n, m))
            pm1 = rng.choice([-1.0, 1.0], size=(n, m))
            deficient = gauss.copy()
            deficient[:, -1] = 2.0 * deficient[:, 0] if m > 1 else 0.0
            for A in (gauss, pm1, deficient):
                yield A
                yield np.asfortranarray(A)

    def test_matches_scipy_dgeqp3(self):
        from scipy.linalg.lapack import dgeqp3
        for A in self.matrices():
            ours = ladsysid._native.dgeqp3(A.T, lwork=-1, overwrite_a=True)
            theirs = dgeqp3(A.T, lwork=-1, overwrite_a=True)
            assert ours[3].tobytes() == theirs[3].tobytes() and ours[4] == theirs[4] == 0
            lwork = int(ours[3][0])
            ours, theirs = ladsysid._native.dgeqp3(A.T, lwork=lwork), dgeqp3(A.T, lwork=lwork)
            for got, expected in zip(ours, theirs):
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_public_import_fallback_gives_same_basis(self, monkeypatch):
        looked_up = not_found(monkeypatch, "scipy.linalg._flapack")
        fallback = _scipy_routine("linalg", "_flapack", "dgeqp3", "scipy.linalg.lapack")
        assert looked_up == ["scipy"]
        matrices = [A for A in self.matrices() if A.flags.c_contiguous]
        bases = [self.basis_or_error(A) for A in matrices]
        assert "singular" in bases
        monkeypatch.setattr(ladsysid.solver, "dgeqp3", fallback)
        assert [self.basis_or_error(A) for A in matrices] == bases

    @staticmethod
    def basis_or_error(A):
        try:
            return _initial_basis(A).tolist()
        except SingularSystemError:
            return "singular"


class TestErfcBinding:
    """``_native.erfc`` is the ufunc ``scipy.special.erfc`` hands out, loaded
    from scipy's ``_special_ufuncs`` extension file, and the public import
    that stands in for it gives the same threshold curve."""

    def test_matches_scipy_erfc(self):
        from scipy.special import erfc
        t = np.concatenate([
            np.linspace(-40.0, 40.0, 200001),
            [np.inf, -np.inf, np.nan, 1e-300, -1e-300, 0.0, -0.0],
            # erfc turns subnormal near 26.54 and underflows to 0 near 26.64
            np.linspace(26.0, 28.0, 20001),
        ])
        assert ladsysid._native.erfc(t).tobytes() == erfc(t).tobytes()
        assert ladsysid._native.erfc is erfc

    def test_file_load_leaves_sys_modules_as_it_was(self, monkeypatch):
        from scipy.special import erfc
        name = "scipy.special._special_ufuncs"
        monkeypatch.delitem(sys.modules, name, raising=False)
        assert _scipy_extension("special", "_special_ufuncs").erfc is erfc
        assert name not in sys.modules
        assert _scipy_extension("special", "_no_such_module") is None
        # a module scipy has imported is used as it is, and stays
        loaded = type(sys)(name)
        monkeypatch.setitem(sys.modules, name, loaded)
        assert _scipy_extension("special", "_special_ufuncs") is loaded
        assert sys.modules[name] is loaded

    def test_public_import_fallback_gives_same_threshold(self, monkeypatch):
        expected = [strong_threshold(m) for m in range(1, 51)]
        looked_up = not_found(monkeypatch, "scipy.special._special_ufuncs")
        fallback = _scipy_routine("special", "_special_ufuncs", "erfc", "scipy.special")
        assert looked_up == ["scipy"]
        monkeypatch.setattr(ladsysid.threshold, "erfc", fallback)
        for m, ref in zip(range(1, 51), expected):
            got = strong_threshold(m)
            assert (np.array([got.beta_star, got.mu, got.delta, got.lhs_value]).tobytes()
                    == np.array([ref.beta_star, ref.mu, ref.delta, ref.lhs_value]).tobytes())
