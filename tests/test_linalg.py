import ast
import importlib
import importlib.machinery
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, lapack

import ials.linalg
from ials.linalg import (
    NotPositiveDefinite,
    blas_threads,
    cholesky,
    gramian,
    solve_factored,
    solve_spd,
)

from conftest import run_python


class TestGramian:
    def test_matches_explicit_row_sum(self, rng):
        for _ in range(10):
            n, d = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            M = rng.standard_normal((n, d))
            expected = np.zeros((d, d))
            for row in M:
                expected += np.outer(row, row)
            G = gramian(M)
            assert np.all(np.abs(G - expected) <= 1e-10 * np.maximum(1.0, np.abs(expected)))

    def test_bitwise_symmetric(self, rng):
        # symmetry must be exact, not approximate: solvers treat G as SPD
        for _ in range(20):
            M = rng.standard_normal((int(rng.integers(1, 30)), 7)) * 100
            G = gramian(M)
            assert np.array_equal(G, G.T)

    def test_empty_matrix(self):
        G = gramian(np.zeros((0, 3)))
        assert G.shape == (3, 3)
        assert np.array_equal(G, np.zeros((3, 3)))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
                    min_size=1, max_size=8))
    def test_positive_semidefinite(self, rows):
        G = gramian(np.array(rows))
        eigvals = np.linalg.eigvalsh(G)
        assert eigvals.min() >= -1e-9 * max(1.0, eigvals.max())


class TestSolveSpd:
    def test_residual_small(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 10))
            G = gramian(rng.standard_normal((d + 2, d)))
            A = G + 0.01 * np.eye(d)
            b = rng.standard_normal(d)
            x, _ = solve_spd(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(solve_spd(np.eye(3), b)[0], b)

    def test_diagonal(self):
        A = np.diag([2.0, 4.0])
        x, _ = solve_spd(A, np.array([2.0, 2.0]))
        assert np.allclose(x, [1.0, 0.5])

    def test_jitter_rescues_near_singular(self):
        # rank-1 plus a tiny diagonal: plain Cholesky may or may not pass,
        # but the jittered retries must produce a finite solution
        v = np.array([1.0, 1.0, 1.0])
        A = np.outer(v, v) + 1e-14 * np.eye(3)
        x, _ = solve_spd(A, v)
        assert np.all(np.isfinite(x))

    def test_rejects_indefinite(self):
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NotPositiveDefinite):
            solve_spd(A, np.ones(2))

    @pytest.mark.parametrize("A,calls", [
        (np.diag([2.0, 3.0]), 1),
        (np.array([[1.0, 1.0], [1.0, 1.0]]), 2),  # singular: one jitter retry
        (np.array([[1.0, 0.0], [0.0, -1.0]]), 1 + ials.linalg.JITTER_RETRIES),
    ])
    def test_one_cholesky_per_attempt(self, monkeypatch, A, calls):
        seen = []

        def spy(M):
            seen.append(M.copy())
            return cholesky(M)

        monkeypatch.setattr(ials.linalg, "cholesky", spy)
        try:
            solve_spd(A, np.ones(2))
        except NotPositiveDefinite:
            pass
        assert len(seen) == calls

    def test_factor_solves_further_right_hand_sides(self, rng):
        A = gramian(rng.standard_normal((6, 4))) + np.eye(4)
        _, L = solve_spd(A, rng.standard_normal(4))
        b = rng.standard_normal(4)
        assert np.array_equal(solve_factored(L, b), solve_spd(A, b)[0])
        assert np.allclose(np.tril(L) @ np.tril(L).T, A, rtol=1e-12, atol=1e-12)

    def test_input_not_mutated(self, rng):
        A = gramian(rng.standard_normal((6, 4))) + np.eye(4)
        b = rng.standard_normal(4)
        A0, b0 = A.copy(), b.copy()
        solve_spd(A, b)
        assert np.array_equal(A, A0)
        assert np.array_equal(b, b0)


class TestCholesky:
    def test_lower_factor(self, rng):
        A = gramian(rng.standard_normal((9, 5))) + 0.1 * np.eye(5)
        L = np.tril(cholesky(A))
        assert np.allclose(L @ L.T, A, rtol=1e-12, atol=1e-12)

    def test_not_positive_definite(self):
        with pytest.raises(LinAlgError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestBlasThreads:
    @staticmethod
    def counts():
        return [get() for get, _ in ials.linalg._openblas_thread_controls()]

    def test_pins_and_restores(self):
        before = self.counts()
        with blas_threads(1):
            assert self.counts() == [1] * len(before)
        assert self.counts() == before

    def test_restores_after_exception(self):
        before = self.counts()
        with pytest.raises(RuntimeError):
            with blas_threads(1):
                raise RuntimeError("boom")
        assert self.counts() == before

    def test_pins_both_bundled_libraries(self):
        # numpy's OpenBLAS and scipy's, the latter found through the
        # LAPACK module's own file
        controls = ials.linalg._openblas_thread_controls()
        assert len(controls) == 2
        assert ials.linalg._OPENBLAS[1][0] == ials.linalg._flapack.__file__
        before = self.counts()
        for _, set_ in controls:
            set_(2)
        try:
            with blas_threads(1):
                assert self.counts() == [1, 1]
            assert self.counts() == [2, 2]
        finally:
            for (_, set_), count in zip(controls, before):
                set_(count)

    def test_no_op_without_symbols(self, monkeypatch):
        real = ials.linalg._openblas_thread_controls()
        before = [get() for get, _ in real]
        monkeypatch.setattr(ials.linalg, "_thread_controls", [])
        with blas_threads(1):
            assert [get() for get, _ in real] == before
        assert [get() for get, _ in real] == before


def spd_system(rng, d):
    A = gramian(rng.standard_normal((d + 3, d))) + 0.01 * np.eye(d)
    return A, rng.standard_normal((d, 2))


class TestLapackLoader:
    def test_loaded_from_file_outside_scipy_linalg(self):
        module = ials.linalg._flapack
        assert module is not sys.modules.get("scipy.linalg._flapack")
        assert Path(module.__file__).parent.name == "linalg"
        assert ials.linalg.dpotrf is module.dpotrf
        assert ials.linalg.dpotrs is module.dpotrs

    @pytest.mark.parametrize("d", [1, 7, 64])
    def test_bitwise_as_scipy_lapack(self, rng, d):
        for _ in range(5):
            A, b = spd_system(rng, d)
            L = cholesky(A)
            L_ref, info = lapack.dpotrf(A, lower=1, clean=0)
            assert info == 0
            assert L.tobytes() == L_ref.tobytes()
            x_ref, info = lapack.dpotrs(L_ref, b, lower=1)
            assert info == 0
            assert solve_factored(L, b).tobytes() == x_ref.tobytes()
            assert solve_spd(A, b)[0].tobytes() == x_ref.tobytes()

    @pytest.mark.parametrize("broken", [False, True])
    def test_falls_back_through_scipy_linalg(self, tmp_path, rng, broken):
        if broken:   # a file of the right name that is no extension module
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            (tmp_path / f"_flapack{suffix}").write_bytes(b"not a shared object")
        module = ials.linalg._load_flapack(str(tmp_path))
        assert module is importlib.import_module("scipy.linalg._flapack")
        A, b = spd_system(rng, 7)
        L, info = module.dpotrf(A, lower=1, clean=0)
        assert info == 0
        assert L.tobytes() == cholesky(A).tobytes()
        assert module.dpotrs(L, b, lower=1)[0].tobytes() == solve_factored(L, b).tobytes()

    def test_scipy_linalg_imports_afterwards(self):
        # a fresh process: ials loads LAPACK first, scipy.linalg after it,
        # and both copies of the module keep working
        script = (
            "import sys, numpy as np\n"
            "import ials.linalg as il\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "assert il._flapack.__name__ == '_flapack'\n"
            "import scipy.linalg\n"
            "A = np.array([[4.0, 2.0], [2.0, 3.0]])\n"
            "L = np.tril(il.cholesky(A))\n"
            "assert np.array_equal(L, scipy.linalg.cholesky(A, lower=True))\n"
            "assert scipy.linalg.lapack.dpotrf is not il.dpotrf\n"
            "with il.blas_threads(1):\n"
            "    x = il.solve_spd(A, np.ones(2))[0]\n"
            "assert np.allclose(A @ x, 1.0)\n"
            "assert len(il._openblas_thread_controls()) == 2\n"
        )
        done = run_python(script)
        assert done.returncode == 0, done.stderr


def test_only_linalg_imports_scipy():
    # LAPACK is reached through ials.linalg alone, so how it is loaded
    # can change in one file
    importers = []
    for path in sorted(Path(ials.linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                importers.append(path.name)
    assert sorted(set(importers)) == ["linalg.py"]
