"""Dense linear-algebra kernels for the alternating least squares solver.

The primitives the solver needs: Gramian accumulation, symmetric
positive-definite solves, and pinning the BLAS thread count around many
small solves.  Everything is float64; Gramian sums over millions of
interactions lose too much precision in float32.

LAPACK (dpotrf, dpotrs) comes from scipy's f2py extension module
scipy/linalg/_flapack, loaded straight from its file: importing
scipy.linalg would first run that package's init, which costs more than
the rest of `import ials` together.  Where no such file is found or it
does not load, the module is imported through scipy.linalg instead.
Either way the same LAPACK and OpenBLAS machine code runs.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
from contextlib import contextmanager

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import IalsError


def _load_flapack(linalg_dir: str | None = None):
    """scipy's LAPACK extension module, loaded from its file in linalg_dir.

    linalg_dir defaults to the installed scipy's linalg directory, found
    without importing scipy.  The module is not entered in sys.modules: a
    later `import scipy.linalg` loads its own copy.  Where no file there
    loads, the module is imported through scipy.linalg.
    """
    if linalg_dir is None:
        scipy = importlib.util.find_spec("scipy")
        linalg_dir = scipy and os.path.join(scipy.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if linalg_dir else ():
        spec = importlib.util.spec_from_file_location(
            "_flapack", os.path.join(linalg_dir, "_flapack" + suffix))
        try:
            # an extension module is linked and initialised in module_from_spec
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:   # no such file, or not a loadable extension
            continue
        return module
    from scipy.linalg import _flapack
    return _flapack


_flapack = _load_flapack()
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs

# Relative diagonal jitter added when a Cholesky factorization fails, and
# how often it is escalated (x10 each time) before giving up.
JITTER_SCALE = 1e-10
JITTER_RETRIES = 3

# numpy and scipy each bundle an OpenBLAS.  An extension module linked
# against it resolves its thread-count symbols; numpy's build uses 64-bit
# integers and suffixed names.
_OPENBLAS = ((_umath_linalg.__file__, "scipy_openblas_{}_num_threads64_"),
             (_flapack.__file__, "scipy_openblas_{}_num_threads"))


class NotPositiveDefinite(IalsError):
    """Cholesky hit a non-positive pivot even after diagonal jitter.

    In the solver this signals a degenerate system: both the L2 penalty
    and the unobserved weight are (effectively) zero for an entity whose
    history does not span the embedding space.
    """


def gramian(M: np.ndarray) -> np.ndarray:
    """Return G = MᵀM for a row-major (n, d) matrix.

    The result is a (d, d) array that is exactly symmetric (bitwise) and
    positive semi-definite by construction.  An empty matrix (n = 0)
    yields the zero matrix.
    """
    M = np.ascontiguousarray(M, dtype=np.float64)
    G = M.T @ M
    # BLAS does not guarantee bitwise symmetry of MᵀM; averaging with the
    # transpose does, since IEEE addition is commutative.
    return (G + G.T) * 0.5


def cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix (LAPACK dpotrf).

    Only the lower triangle of A is read, and only the lower triangle of
    the result is meaningful.

    Raises:
        LinAlgError: A is not positive definite.
    """
    L, info = dpotrf(A, lower=1, clean=0)
    if info:
        raise LinAlgError(f"leading minor {info} is not positive definite")
    return L


def solve_spd(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    If the factorization fails, retries with escalating diagonal jitter
    (JITTER_SCALE * trace(A)/d, then x10 per retry, JITTER_RETRIES times).

    Returns (x, L), L the lower Cholesky factor of the matrix factored (A
    plus any jitter): a further right-hand side costs one solve_factored.

    Raises:
        NotPositiveDefinite: no attempt produced a positive definite
            factorization.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = A.shape[0]

    for attempt in range(JITTER_RETRIES + 1):
        Aj = A
        if attempt:
            jitter = JITTER_SCALE * np.trace(A) / d if attempt == 1 else jitter * 10.0
            Aj = A.copy()
            Aj.ravel()[:: d + 1] += jitter
        try:
            L = cholesky(Aj)
        except LinAlgError:
            continue
        return solve_factored(L, b), L

    raise NotPositiveDefinite(
        f"{d}x{d} system is not positive definite after {JITTER_RETRIES} "
        "jitter retries; check that the regularization weight or the "
        "unobserved weight is positive"
    )


def solve_factored(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L' x = b, L a lower Cholesky factor from solve_spd (LAPACK dpotrs)."""
    return dpotrs(L, b, lower=1)[0]


def _openblas_thread_controls(libraries=_OPENBLAS) -> list:
    """(get, set) thread-count functions of each (path, symbol template) found."""
    controls = []
    for path, symbol in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get, set_ = (getattr(lib, symbol.format(op), None) for op in ("get", "set"))
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return controls


# the libraries are loaded already, so binding them here costs two lookups
_THREAD_CONTROLS = _openblas_thread_controls()


@contextmanager
def blas_threads(n: int):
    """Run the body with both bundled OpenBLAS libraries at n threads.

    The previous counts come back on exit, also on an exception.  Small
    per-entity solves run several times faster on one thread than with
    threads contending for them.  The setting is process-wide: two
    threads of one process must not train at the same time.  Without
    the OpenBLAS symbols (another BLAS build) this does nothing.
    """
    controls = _THREAD_CONTROLS
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(n)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)
