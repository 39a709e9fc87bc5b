"""Alternating least squares for implicit feedback.

The objective has three parts: a squared error on observed pairs pushing
scores to 1, an implicit term alpha0 * sum of squared scores over ALL
user-item pairs (observed ones included), and a per-entity L2 penalty
whose weight scales with interaction frequency:

    lambda_u = lambda * (|I(u)| + alpha0 * |I|) ** nu

Fixing one side turns each embedding row into an independent ridge
regression whose normal matrix needs only the Gramian of the fixed side,
so a half-step never touches the |U| * |I| dense score matrix.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dataset import InteractionSet
from .errors import IalsError, InputError
from .linalg import blas_threads, gramian, solve_spd
from .model import FactorModel, init_model

SOLVER_KINDS = ("exact", "block")

# chunk length for streaming the observed-pair loss; bounds peak memory
# at roughly 2 * chunk * dim floats
_LOSS_CHUNK = 16384


@dataclass(frozen=True)
class Hyperparameters:
    """Training configuration.

    Regularization comes in two modes: direct (lambda_ set) or normalized
    (lambda_star set), where the actual lambda is rescaled per dataset so
    that the total penalty mass matches what exponent nu_star would give.
    Exactly one of lambda_ / lambda_star must be set.
    """

    dim: int
    alpha0: float
    lambda_: float | None = None
    lambda_star: float | None = None
    nu: float = 1.0
    nu_star: float = 1.0
    iterations: int = 16
    sigma_star: float = 0.1
    seed: int = 0
    solver: str = "exact"
    block_size: int = 128
    projection_repeats: int = 8

    def __post_init__(self):
        for name in ("alpha0", "lambda_", "lambda_star", "sigma_star"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if self.dim < 1:
            raise InputError("dim must be >= 1")
        if self.alpha0 < 0:
            raise InputError("alpha0 must be >= 0")
        if (self.lambda_ is None) == (self.lambda_star is None):
            raise InputError("set exactly one of lambda_ / lambda_star")
        reg = self.lambda_ if self.lambda_ is not None else self.lambda_star
        if reg < 0:
            raise InputError("regularization strength must be >= 0")
        if not 0.0 <= self.nu <= 1.0 or not 0.0 <= self.nu_star <= 1.0:
            raise InputError("nu and nu_star must lie in [0, 1]")
        if self.iterations < 0:
            raise InputError("iterations must be >= 0")
        if self.sigma_star < 0:
            raise InputError("sigma_star must be >= 0")
        if self.solver not in SOLVER_KINDS:
            raise InputError(f"solver must be one of {SOLVER_KINDS}")
        if self.block_size < 1 or self.projection_repeats < 1:
            raise InputError("block_size and projection_repeats must be >= 1")

    def resolve(self, data: InteractionSet) -> "Hyperparameters":
        """Return a direct-mode copy; normalized lambda_star is rescaled on data."""
        if self.lambda_ is not None:
            return self
        lam = effective_lambda(self.lambda_star, self.nu, self.nu_star, data, self.alpha0)
        return dataclasses.replace(self, lambda_=lam, lambda_star=None)


@dataclass(frozen=True)
class LossReport:
    """Loss decomposition after one iteration; L = L_S + L_I + R."""

    iteration: int
    L: float
    L_S: float
    L_I: float
    R: float


def regularization_weight(count, other_side_size: int, alpha0: float,
                          nu: float, lambda_: float):
    """Frequency-scaled L2 weight lambda * (count + alpha0*other_side_size)**nu.

    count is one interaction count or an array of them; the result has
    its shape.
    """
    base = np.asarray(count, dtype=np.float64) + alpha0 * other_side_size
    return lambda_ * np.power(base, nu)


def effective_lambda_from_counts(lambda_star: float, nu: float, nu_star: float,
                                 user_counts, item_counts, alpha0: float) -> float:
    """Rescaled lambda from raw degree profiles (see effective_lambda)."""
    user_counts = np.asarray(user_counts)
    item_counts = np.asarray(item_counts)

    def mass(exponent: float) -> float:
        return float(
            regularization_weight(user_counts, item_counts.size, alpha0, exponent, 1.0).sum()
            + regularization_weight(item_counts, user_counts.size, alpha0, exponent, 1.0).sum())

    # Same code path for both sums, and the ratio is formed first: when
    # nu == nu_star it is exactly 1.0 and lambda_star passes through bitwise.
    return lambda_star * (mass(nu_star) / mass(nu))


def effective_lambda(lambda_star: float, nu: float, nu_star: float,
                     data: InteractionSet, alpha0: float) -> float:
    """Rescale lambda_star from reference exponent nu_star to exponent nu.

    The returned lambda makes the summed per-entity penalty weights under
    nu equal to what lambda_star would give under nu_star, keeping good
    regularization strengths on one scale while nu varies.
    """
    return effective_lambda_from_counts(
        lambda_star, nu, nu_star, data.user_counts, data.item_counts, alpha0)


def solve_entity(history: np.ndarray, alpha_G: np.ndarray,
                 lambda_entity: float) -> np.ndarray:
    """Closed-form embedding for one entity given the fixed side.

    Args:
        history: (n, d) embedding rows of the entity's observed partners.
        alpha_G: (d, d) alpha0 * G, where G is the Gramian of the FULL
            fixed-side matrix.  The implicit term covers every pair, so
            observed rows contribute weight 1 + alpha0 in total.  A
            half-step forms it once for all its entities.
        lambda_entity: this entity's L2 weight.

    Returns:
        argmin_x sum_history (x.h - 1)^2 + alpha0*x'Gx + lambda_entity*|x|^2.
    """
    d = alpha_G.shape[0]
    history = np.asarray(history, dtype=np.float64).reshape(-1, d)
    if history.shape[0] == 0:
        return np.zeros(d)  # b = 0 and A is PD, so the minimizer is 0
    A = history.T @ history
    A += alpha_G
    A.flat[:: d + 1] += lambda_entity
    return solve_spd(A, history.sum(axis=0))


def solve_entity_block(current: np.ndarray, history: np.ndarray, G: np.ndarray,
                       alpha0: float, lambda_entity: float, block_size: int) -> np.ndarray:
    """One cyclic pass of exact block coordinate descent on the entity quadratic.

    Uses the same A, b as solve_entity.  Each contiguous coordinate block
    is minimized exactly with the other coordinates held at their current
    values, in order; the fixed point of repeated passes is the
    solve_entity solution.  Returns a new vector; current is not modified.

    The d x d system is never formed (iALS++): the pass keeps the residual
    r = 1 - history @ x of each observed row and g = alpha0 * G @ x, so a
    block costs one b x b system and O(n*b + d*b) updates, and a pass
    O(n*d*b + d*d + d*b*b).  One block is the closed-form solve_entity.
    """
    d = G.shape[0]
    history = np.asarray(history, dtype=np.float64).reshape(-1, d)
    x = np.array(current, dtype=np.float64, copy=True)
    if x.shape != (d,):
        raise InputError(f"current has shape {x.shape}, expected ({d},)")
    if block_size >= d:
        return solve_entity(history, alpha0 * G, lambda_entity)
    r = 1.0 - history @ x
    g = alpha0 * (G @ x)
    for start in range(0, d, block_size):
        B = slice(start, min(start + block_size, d))
        h = history[:, B]
        A = h.T @ h + alpha0 * G[B, B]
        A.flat[:: A.shape[0] + 1] += lambda_entity
        delta = solve_spd(A, h.T @ r - g[B] - lambda_entity * x[B])
        x[B] += delta
        r -= h @ delta
        g += alpha0 * (G[:, B] @ delta)
    return x


def _update_side(factors: np.ndarray, fixed: np.ndarray, ptr: np.ndarray,
                 partners: np.ndarray, hp: Hyperparameters, side: str) -> None:
    """Re-solve every row of `factors` against the fixed side, in place.

    Raises IalsError if any updated factor is not finite, so a NaN or inf
    never reaches a saved model.
    """
    G = gramian(fixed)
    alpha_G = hp.alpha0 * G
    lams = regularization_weight(np.diff(ptr), fixed.shape[0], hp.alpha0, hp.nu, hp.lambda_)
    with blas_threads(1):
        for e in range(factors.shape[0]):
            rows = fixed[partners[ptr[e]:ptr[e + 1]]]
            if hp.solver == "block":
                factors[e] = solve_entity_block(factors[e], rows, G,
                                                hp.alpha0, lams[e], hp.block_size)
            else:
                factors[e] = solve_entity(rows, alpha_G, lams[e])
    bad = np.count_nonzero(~np.isfinite(factors))
    if bad:
        raise IalsError(f"{side} half-step produced {bad} non-finite factor entries")


def update_users(model: FactorModel, data: InteractionSet, hp: Hyperparameters) -> None:
    """Half-step: re-solve all user embeddings with items fixed (mutates W)."""
    hp = hp.resolve(data)
    _update_side(model.user_factors, model.item_factors,
                 data.user_ptr, data.user_items, hp, "user")


def update_items(model: FactorModel, data: InteractionSet, hp: Hyperparameters) -> None:
    """Half-step: re-solve all item embeddings with users fixed (mutates H)."""
    hp = hp.resolve(data)
    _update_side(model.item_factors, model.user_factors,
                 data.item_ptr, data.item_users, hp, "item")


def compute_losses(model: FactorModel, data: InteractionSet,
                   hp: Hyperparameters, iteration: int = 0) -> LossReport:
    """Evaluate the full objective without forming the dense score matrix.

    The implicit term uses the Frobenius inner product of the two
    Gramians: alpha0 * <W'W, H'H> equals alpha0 * sum of all squared
    scores.  The observed term streams over S in chunks.
    """
    hp = hp.resolve(data)
    W, H = model.user_factors, model.item_factors

    loss_s = 0.0
    users, items = data.pairs()
    for start in range(0, users.size, _LOSS_CHUNK):
        u = users[start:start + _LOSS_CHUNK]
        i = items[start:start + _LOSS_CHUNK]
        scores = np.einsum("ij,ij->i", W[u], H[i])
        loss_s += float(((scores - 1.0) ** 2).sum())

    loss_i = hp.alpha0 * float(np.tensordot(gramian(W), gramian(H)))

    lam_u = regularization_weight(data.user_counts, data.num_items,
                                  hp.alpha0, hp.nu, hp.lambda_)
    lam_i = regularization_weight(data.item_counts, data.num_users,
                                  hp.alpha0, hp.nu, hp.lambda_)
    reg = float(lam_u @ (W ** 2).sum(axis=1) + lam_i @ (H ** 2).sum(axis=1))

    return LossReport(iteration=iteration, L=loss_s + loss_i + reg,
                      L_S=loss_s, L_I=loss_i, R=reg)


def project_user(history_items, H: np.ndarray, G_H: np.ndarray,
                 hp: Hyperparameters) -> np.ndarray:
    """Fold-in: embedding for an unseen user from their item history.

    Exact solver: the closed-form solve, identical to a training user
    whose item set equals history_items.  Block solver: projection_repeats
    cyclic block passes starting from the zero vector.

    hp must be in direct mode (resolve against the training set first);
    there is no dataset here to derive a normalized lambda from.
    """
    if hp.lambda_ is None:
        raise InputError("project_user needs direct-mode hyperparameters; "
                         "call hp.resolve(train_data) first")
    history_items = np.asarray(history_items, dtype=np.int64)
    rows = H[history_items]
    lam = regularization_weight(history_items.size, H.shape[0],
                                hp.alpha0, hp.nu, hp.lambda_)
    with blas_threads(1):
        if hp.solver == "block":
            x = np.zeros(G_H.shape[0])
            for _ in range(hp.projection_repeats):
                x = solve_entity_block(x, rows, G_H, hp.alpha0, lam, hp.block_size)
            return x
        return solve_entity(rows, hp.alpha0 * G_H, lam)


def train(data: InteractionSet, hp: Hyperparameters, observer=None, eval_fn=None,
          ) -> tuple[FactorModel, list[LossReport]]:
    """Run T alternating iterations from a fresh seeded initialization.

    Each iteration updates users then items and evaluates the loss.  The
    observer, when given, is called after every iteration as
    observer(iteration, LossReport, metrics) where metrics is eval_fn's
    result (eval_fn takes the current model) or None.

    Returns the trained model and the per-iteration loss reports.
    """
    hp = hp.resolve(data)
    model = init_model(data.num_users, data.num_items, hp.dim,
                       sigma_star=hp.sigma_star, seed=hp.seed)
    reports: list[LossReport] = []
    for t in range(1, hp.iterations + 1):
        update_users(model, data, hp)
        update_items(model, data, hp)
        report = compute_losses(model, data, hp, iteration=t)
        reports.append(report)
        metrics = eval_fn(model) if eval_fn is not None else None
        if observer is not None:
            observer(t, report, metrics)
    return model, reports
