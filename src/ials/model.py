"""Factor model container, seeded initialization, ranking, and model files."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InputError

MODEL_MAGIC = "ials-model"
MODEL_VERSION = "v1"


@dataclass
class FactorModel:
    """User and item embeddings; score of pair (u, i) is the dot product."""

    user_factors: np.ndarray  # (num_users, dim) float64
    item_factors: np.ndarray  # (num_items, dim) float64

    def __post_init__(self):
        self.user_factors = np.ascontiguousarray(self.user_factors, dtype=np.float64)
        self.item_factors = np.ascontiguousarray(self.item_factors, dtype=np.float64)
        if self.user_factors.ndim != 2 or self.item_factors.ndim != 2:
            raise DimensionMismatch("factor matrices must be 2-d")
        if self.user_factors.shape[1] != self.item_factors.shape[1]:
            raise DimensionMismatch(
                f"embedding dims differ: users {self.user_factors.shape[1]}, "
                f"items {self.item_factors.shape[1]}"
            )

    @property
    def num_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_factors.shape[0]

    @property
    def dim(self) -> int:
        return self.user_factors.shape[1]


def init_model(num_users: int, num_items: int, dim: int,
               sigma_star: float = 0.1, seed: int = 0) -> FactorModel:
    """Gaussian init with per-entry scale sigma_star / sqrt(dim).

    The scale keeps the variance of an initial dot product independent of
    dim.  User factors are drawn before item factors from a single
    generator, so both matrices are reproducible from one seed.
    """
    if dim < 1 or num_users < 1 or num_items < 1:
        raise InputError("num_users, num_items and dim must be positive")
    rng = np.random.default_rng(seed)
    scale = sigma_star / math.sqrt(dim)
    w = rng.standard_normal((num_users, dim)) * scale
    h = rng.standard_normal((num_items, dim)) * scale
    return FactorModel(user_factors=w, item_factors=h)


def rank_items(scores: np.ndarray, exclude: np.ndarray | None = None,
               k: int | None = None) -> np.ndarray:
    """Column indices of scores, best first, along the last axis.

    scores is (n,) or (m, n); each row is ranked on its own.  The rule:
    excluded columns last (exclude is a boolean mask that broadcasts
    against scores, e.g. a user's fold-in items), then NaN scores, then
    descending score, then ascending column index.  k truncates each row;
    None keeps the full order.  Ties fall to column order through the
    sort's stability: np.lexsort keeps equal keys in their input order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    excluded = np.broadcast_to(False if exclude is None else exclude, scores.shape)
    # lexsort: the last key is the primary one
    order = np.lexsort((-scores, np.isnan(scores), excluded), axis=-1)
    return order[..., :k]


def save_model(path, model: FactorModel) -> None:
    """Write a model file: one ASCII header line, then W and H row-major.

    Header: "ials-model v1 <num_users> <num_items> <dim>\\n".  Both
    matrices follow as little-endian float64, W first.
    """
    header = (f"{MODEL_MAGIC} {MODEL_VERSION} "
              f"{model.num_users} {model.num_items} {model.dim}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        # straight from each matrix's buffer: both are C-contiguous float64
        for factors in (model.user_factors, model.item_factors):
            fh.write(np.ascontiguousarray(factors, dtype="<f8"))


def load_model(path) -> FactorModel:
    """Read a model file written by save_model.

    Raises:
        InputError: the file cannot be opened, unknown magic/version,
            malformed header, a payload whose size disagrees with the
            header, or a factor entry that is NaN or infinite.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with fh:
        header = fh.readline(256).decode("ascii", errors="replace").strip()
        parts = header.split()
        if len(parts) != 5 or parts[0] != MODEL_MAGIC:
            raise InputError(f"{path}: not a model file (header {header!r})")
        if parts[1] != MODEL_VERSION:
            raise InputError(f"{path}: unsupported model version {parts[1]!r}")
        try:
            num_users, num_items, dim = (int(p) for p in parts[2:])
        except ValueError as exc:
            raise InputError(f"{path}: malformed header {header!r}") from exc
        if min(num_users, num_items, dim) < 1:
            raise InputError(f"{path}: non-positive shape in header {header!r}")
        expected = (num_users + num_items) * dim * 8
        found = expected
        if fh.seekable():   # a file that can tell its size does so before allocating
            start = fh.tell()
            found = fh.seek(0, os.SEEK_END) - start
            fh.seek(start)
        if found == expected:
            # read into the two matrices: no copy of the payload besides them
            w = np.empty((num_users, dim), dtype="<f8")
            h = np.empty((num_items, dim), dtype="<f8")
            found = fh.readinto(w) + fh.readinto(h) + len(fh.read())
    if found != expected:
        raise InputError(
            f"{path}: expected {expected} payload bytes for shape "
            f"({num_users}+{num_items})x{dim}, found {found}"
        )
    bad = np.count_nonzero(~np.isfinite(w)) + np.count_nonzero(~np.isfinite(h))
    if bad:
        raise InputError(f"{path}: {bad} non-finite factor entries")
    return FactorModel(user_factors=w, item_factors=h)
