"""Environment record attached to every benchmark result.

The benchmark never sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or any
pinning: it records what it finds, so a change that pins threads shows
its effect against runs that did not.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# numpy's bundled OpenBLAS uses 64-bit integers and suffixed symbols.
_BLAS = (("numpy", "scipy_openblas_get_num_threads64_"),
         ("scipy", "scipy_openblas_get_num_threads"))


def _openblas(package: str, getter: str) -> dict:
    """Path (relative to site-packages) and thread count of a package's
    bundled OpenBLAS; null when absent."""
    site = Path(__import__(package).__file__).resolve().parent.parent
    libs = sorted((site / f"{package}.libs").glob("*openblas*"))
    threads = None
    if libs:
        fn = getattr(ctypes.CDLL(str(libs[0])), getter, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
    return {"path": str(libs[0].relative_to(site)) if libs else None, "threads": threads}


def git_revision(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git; None outside git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def collect(root: Path) -> dict:
    """Versions, cores, BLAS libraries and thread settings of this process."""
    import numpy
    import scipy

    import ials

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ials": ials.__version__,
        "git_revision": git_revision(root),
        "openblas": {pkg: _openblas(pkg, getter) for pkg, getter in _BLAS},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
