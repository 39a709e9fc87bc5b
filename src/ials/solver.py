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
import os
import pickle
import signal
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import InteractionSet
from .errors import IalsError, InputError
from .linalg import blas_threads, gramian, solve_factored, solve_spd
from .model import FactorModel, init_model

SOLVER_KINDS = ("exact", "block")

# floats per chunk of alpha0 * X @ G, the block passes' start g, that a
# half-step forms at once: 2**15 // dim rows, 256 KiB whatever dim is
_START_CHUNK_FLOATS = 2 ** 15

# _plan's estimated work, in multiply-adds: per process, since a fork and
# its pipe (about 8 ms on 2 vCPUs) pay only past about twice this; and per
# solve and block pass, for the Python around it (about 10 us)
_FORK_WORK = 2e8
_CALL_WORK = 1.5e5

# A block is solved in the interaction space only while min(D) exceeds
# this fraction of max(D); D^-1 magnifies rounding by their ratio.
_WOODBURY_MIN_RATIO = 1e-8


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
        if self.iterations < 0 or self.seed < 0:
            raise InputError("iterations and seed must be >= 0")
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
        lam = effective_lambda_from_counts(self.lambda_star, self.nu, self.nu_star,
                                           data.user_counts, data.item_counts, self.alpha0)
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
    """Rescale lambda_star from reference exponent nu_star to exponent nu.

    The returned lambda makes the summed per-entity penalty weights of
    users and items with these interaction counts under nu equal to what
    lambda_star would give under nu_star, keeping good regularization
    strengths on one scale while nu varies.
    """
    user_counts = np.asarray(user_counts)
    item_counts = np.asarray(item_counts)

    def mass(exponent: float) -> float:
        return float(
            regularization_weight(user_counts, item_counts.size, alpha0, exponent, 1.0).sum()
            + regularization_weight(item_counts, user_counts.size, alpha0, exponent, 1.0).sum())

    # Same code path for both sums, and the ratio is formed first: when
    # nu == nu_star it is exactly 1.0 and lambda_star passes through bitwise.
    return lambda_star * (mass(nu_star) / mass(nu))


def solve_entity(history: np.ndarray, alpha_G: np.ndarray, lambda_entity: float,
                 rhs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Solve one entity's normal equations A x = rhs: the one place that
    assembles A = history'history + alpha_G + lambda_entity * I.

    history holds the (n, d) float64 rows of the entity's observed
    partners (n = 0 gives x = 0 when A is positive definite; callers
    return that without solving, in solve_entity_block); alpha_G is
    alpha0 * G, G the Gramian of the FULL fixed side (block_side forms it
    once), so observed rows weigh 1 + alpha0 in total.  rhs defaults to
    history.sum(axis=0), giving
    argmin_x sum_history (x.h - 1)^2 + alpha0*x'Gx + lambda_entity*|x|^2;
    a block pass passes one block's columns and its gradient instead.

    Returns (x, L) as solve_spd does: L factors A (see solve_factored).
    """
    A = history.T @ history
    A += alpha_G
    A.ravel()[:: A.shape[0] + 1] += lambda_entity
    return solve_spd(A, history.sum(axis=0) if rhs is None else rhs)


@dataclass(frozen=True)
class BlockSide:
    """The fixed side of half-steps and fold-ins, prepared once for all entities.

    factors are the fixed-side rows and G their Gramian (the block passes
    use alpha0 * (G @ x), which rounds unlike (alpha0 * G) @ x).  blocks
    holds, for each coordinate block B, every array a block step reads,
    each contiguous: (B, lam, Q, factors[:, B] @ Q, alpha0 * G[B, B],
    G[B.stop:, B]) with alpha0 * G[B, B] = Q diag(lam) Q'.  blocks is empty
    when one block covers all d coordinates, the exact solve, which alone
    keeps the full alpha_G = alpha0 * G (None otherwise).
    """

    factors: np.ndarray
    G: np.ndarray
    alpha0: float
    alpha_G: np.ndarray | None
    blocks: tuple


def block_side(factors: np.ndarray, G: np.ndarray, alpha0: float,
               block_size: int) -> BlockSide:
    """One eigh per coordinate block of alpha0 * G and the fixed side rotated into it.

    The eighs all run under one blas_threads(1): threads only contend for a
    b x b eigh, and after a fork each thread-count change restarts the
    OpenBLAS pool.  The rotations stay threaded.
    """
    d = G.shape[0]
    if block_size >= d:
        return BlockSide(factors, G, alpha0, alpha0 * G, ())
    spans = [slice(start, min(start + block_size, d)) for start in range(0, d, block_size)]
    alpha_G = [alpha0 * G[B, B] for B in spans]
    with blas_threads(1):
        eighs = [np.linalg.eigh(block) for block in alpha_G]
    return BlockSide(factors, G, alpha0, None, tuple(
        (B, lam, Q, factors[:, B] @ Q, block, np.ascontiguousarray(G[B.stop:, B]))
        for B, block, (lam, Q) in zip(spans, alpha_G, eighs)))


def solver_side(fixed: np.ndarray, G: np.ndarray, hp: Hyperparameters) -> BlockSide:
    """block_side of `fixed` for hp's solver: blocks of hp.block_size under
    the block solver, one block of all d columns under the exact one.  The
    one reader of hp.solver besides Hyperparameters' validation."""
    d = fixed.shape[1]
    return block_side(fixed, G, hp.alpha0, hp.block_size if hp.solver == "block" else d)


def _woodbury_cheaper(n: int, b: int, passes: int) -> bool:
    """Whether a b-coordinate block with n observed rows takes fewer flops
    in the n x n interaction space than as a b x b system, passes included."""
    cholesky = n * b * b + b ** 3 / 3 + passes * 2 * b * b
    woodbury = n * n * b + n ** 3 / 3 + passes * (4 * b * b + 4 * n * b + 2 * n * n)
    return woodbury < cholesky


def solve_entity_block(current: np.ndarray, partners, side: BlockSide,
                       lambda_entity: float, passes: int = 1, g: np.ndarray | None = None,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic passes of exact block coordinate descent on the entity quadratic.

    Uses the same A, b as solve_entity with history = side.factors[partners].
    Each block of coordinates is minimized exactly with the others held at
    their current values, in order; the fixed point of repeated passes is
    the solve_entity solution.  With one block (exact iALS) it is the
    closed-form solve_entity, whatever current, passes and g are.

    g, when given, is alpha0 * G @ current, which _update_side forms for
    many entities in one product; otherwise the first pass forms it.
    Neither current nor g is modified.

    Returns (x, r): a new vector x and the residuals r = 1 - history @ x
    of the entity's observed pairs, so r @ r is its share of L_S.  With no
    partners the minimizer is 0 (b = 0, A positive semi-definite),
    returned without solving, for one block or many.

    The d x d system is never formed (iALS++).  A setup ahead of the
    passes sets each block's path: the n x n interaction space when that
    takes fewer flops over all passes (_woodbury_cheaper, about n < b) and
    min(D) is not tiny against max(D), where D^-1 would magnify rounding;
    else the b x b system of solve_entity on the block's columns.  With
    D = lam + lambda_entity and S = history[:, B] @ Q @ D^-1/2, Woodbury
    factors the n x n I + S S'.  The first pass factors each block, later
    ones reuse the factor.  A solved block updates g = alpha0 * G @ x on
    the blocks after it, (d*d - d*b) / 2 multiply-adds, and each pass
    forms g afresh (d*d): P passes cost O(n*d*b + d*b*b + P*(n*d + d*d)).

    Raises:
        InputError: current or g is not a vector of length d.
    """
    d = side.G.shape[0]
    if np.shape(current) != (d,):
        raise InputError(f"current has shape {np.shape(current)}, expected ({d},)")
    if g is not None and np.shape(g) != (d,):
        raise InputError(f"g has shape {np.shape(g)}, expected ({d},)")
    history = side.factors[partners]
    n = history.shape[0]
    if n == 0:
        return np.zeros(d), np.empty(0)
    if not side.blocks:
        x = solve_entity(history, side.alpha_G, lambda_entity)[0]
        return x, 1.0 - history @ x
    x = np.array(current, dtype=np.float64, copy=True)
    g = None if g is None else np.array(g, dtype=np.float64, copy=True)
    # per block: (S, D^-1/2) on the n x n path, and the factor its first solve sets
    woodbury, chol = [None] * len(side.blocks), [None] * len(side.blocks)
    for k, (_, lam, _, rotated, _, _) in enumerate(side.blocks):   # eigh's lam ascend
        if (_woodbury_cheaper(n, lam.size, passes) and lam[0] + lambda_entity
                > _WOODBURY_MIN_RATIO * (lam[-1] + lambda_entity)):
            scale = 1.0 / np.sqrt(lam + lambda_entity)
            woodbury[k] = rotated[partners] * scale, scale
    for _ in range(passes):
        r = 1.0 - history @ x
        if g is None:
            g = side.alpha0 * (side.G @ x)
        for k, (B, _, Q, _, alpha_G, below) in enumerate(side.blocks):
            h = history[:, B]
            rhs = h.T @ r - g[B] - lambda_entity * x[B]
            if woodbury[k] is not None:
                S, scale = woodbury[k]
                u = (Q.T @ rhs) * scale
                rhs = S @ u
            if chol[k] is not None:
                delta = solve_factored(chol[k], rhs)
            elif woodbury[k] is None:
                delta, chol[k] = solve_entity(h, alpha_G, lambda_entity, rhs)
            else:
                A = S @ S.T
                A.ravel()[:: n + 1] += 1.0
                delta, chol[k] = solve_spd(A, rhs)
            if woodbury[k] is not None:
                delta = Q @ ((u - S.T @ delta) * scale)
            x[B] += delta
            r -= h @ delta
            if B.stop < d:
                g[B.stop:] += side.alpha0 * (below @ delta)
        g = None   # stale after the pass: the next one forms it from x
    return x, 1.0 - history @ x


def penalty_weights(data: InteractionSet, hp: Hyperparameters,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """L2 weights of every user and every item; hp must be in direct mode."""
    return (regularization_weight(data.user_counts, data.num_items,
                                  hp.alpha0, hp.nu, hp.lambda_),
            regularization_weight(data.item_counts, data.num_users,
                                  hp.alpha0, hp.nu, hp.lambda_))


def _cpus() -> int:
    """CPUs this process may run on; 1 where os.fork or os.sched_getaffinity
    is missing, which keeps _update_side in this process."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _plan(factors: np.ndarray, ptr: np.ndarray, width: int, passes: int,
          ) -> tuple[list, int]:
    """(chunks, processes) of _update_side: the (first, stop) chunks of rows
    solved, and one process per _FORK_WORK of estimated work, from 1 to the
    CPUs and the chunks.

    Row e with m = ptr[e + 1] - ptr[e] partners costs m*d*b + d*b*b/3 (its
    b = width wide block factors), 6*d*(2*m + d) per pass and _CALL_WORK
    per solve and block pass; an exact solve is one pass over one block.
    Rows are cut at 8 equal shares of work per process, empty chunks
    dropped.  A block side forms one start product per chunk, so it also
    cuts at every start cell of _START_CHUNK_FLOATS // d rows, and from
    nonzero factors at the cells alone: their starts round alike on any
    count (zero starts, as in fold-in, are zeros @ G = 0 however cut).
    """
    n, d = factors.shape
    b = min(width, d)
    blocks = -(-d // b)
    passes = passes if blocks > 1 else 1
    per_partner = d * (b + 12 * passes)
    per_row = d * b * b / 3 + 6 * passes * d * d + _CALL_WORK * (1 + passes * blocks)
    work = per_partner * (ptr[-1] - ptr[0]) + per_row * n
    procs = int(max(1, min(_cpus(), work // _FORK_WORK)))
    firsts = set()
    if blocks > 1:
        firsts.update(range(0, n, max(1, _START_CHUNK_FLOATS // d)))
    if blocks == 1 or not factors.any():
        before = per_partner * (ptr[:-1] - ptr[0]) + per_row * np.arange(n)
        cuts = np.arange(8 * procs) * (work / (8 * procs))
        firsts.update(np.searchsorted(before, cuts).tolist())
    firsts = sorted(first for first in firsts if first < n) or [0]
    chunks = list(zip(firsts, firsts[1:] + [n]))
    return chunks, min(procs, len(chunks))


def _solve_forked(factors: np.ndarray, loss: np.ndarray, chunks: list, procs: int,
                  solve) -> None:
    """solve(share), which solves the share's rows into factors and loss,
    for procs shares of chunks, one per process.

    Chunk c goes to process c mod procs, so Zipf-skewed rows spread
    evenly.  This process solves share 0 (all of chunks when procs is 1:
    no fork); each forked worker solves its share in its own copy of the
    arrays and sends the share's rows and losses back through a pipe,
    read straight into factors and loss.  A worker's exception comes back
    pickled in their place and is raised here; a worker that ends without
    either raises IalsError.  On any failure every worker still running
    is killed and reaped first.
    """
    children = {}   # pid -> (read end of its pipe, its share)
    try:
        for p in range(1, procs):
            share = chunks[p::procs]
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # OpenBLAS shuts its threads down in an atfork handler,
                    # so forking with its pool alive is safe
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:   # the worker: never returns
                code = 1
                try:
                    with os.fdopen(write_fd, "wb") as pipe:
                        try:
                            solve(share)
                        except BaseException as exc:
                            try:
                                raised = pickle.dumps(exc)
                                pickle.loads(raised)
                            except Exception:   # sent as its class name and message
                                raised = pickle.dumps(IalsError(f"{type(exc).__name__}: {exc}"))
                            pipe.write(b"E" + raised)
                        else:
                            pipe.write(b"R")
                            for first, stop in share:
                                pipe.write(factors[first:stop])
                                pipe.write(loss[first:stop])
                            code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[pid] = (os.fdopen(read_fd, "rb"), share)
        solve(chunks[::procs])
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                kind = pipe.read(1)
                whole = kind == b"R" and all(
                    pipe.readinto(out) == out.nbytes for first, stop in share
                    for out in (factors[first:stop], loss[first:stop]))
                rest = pipe.read()   # to EOF, before waitpid
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if kind == b"E":
                raise pickle.loads(rest)
            if not whole or rest or status:
                raise IalsError(f"solver worker {pid} ended with status "
                                f"{os.waitstatus_to_exitcode(status)} before sending its rows")
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _update_side(factors: np.ndarray, side: BlockSide, ptr: np.ndarray,
                 partners: np.ndarray, lams: np.ndarray, passes: int, what: str,
                 ) -> tuple[float, int]:
    """Re-solve every row of `factors` in place: the one entity loop of
    half-steps and fold-in.

    Row e is solved against partners[ptr[e]:ptr[e + 1]] with L2 weight
    lams[e], by `passes` block passes from its current value, in _plan's
    chunks and processes (_solve_forked): same bits on any count.  A block
    side's starts g = alpha0 * x @ G come from one product per chunk.
    Returns (L_S, processes): the sum of (1 - score)^2 over observed pairs
    with the updated factors, from the residuals each entity's solve
    returns, and the count of processes that solved the rows.

    Raises IalsError naming `what` if any updated factor is not finite, so
    a NaN or inf never reaches a saved model or a ranking.
    """
    n, d = factors.shape
    chunks, procs = _plan(factors, ptr, side.blocks[0][0].stop if side.blocks else d, passes)
    loss = np.empty(n)

    def solve(share):
        for first, stop in share:
            if side.blocks:
                starts = factors[first:stop] @ side.G
                starts *= side.alpha0
            else:
                starts = [None] * (stop - first)
            for e, g in zip(range(first, stop), starts):
                factors[e], r = solve_entity_block(factors[e], partners[ptr[e]:ptr[e + 1]],
                                                   side, lams[e], passes, g=g)
                loss[e] = r @ r

    with blas_threads(1):
        _solve_forked(factors, loss, chunks, procs, solve)
    bad = np.count_nonzero(~np.isfinite(factors))
    if bad:
        raise IalsError(f"{what} produced {bad} non-finite factor entries")
    loss_s = 0.0
    for term in loss.tolist():   # in entity order, one add at a time, as ever
        loss_s += term
    return loss_s, procs


def update_users(model: FactorModel, data: InteractionSet, side: BlockSide,
                 lams: np.ndarray) -> tuple[float, int]:
    """Half-step: re-solve all user embeddings with items fixed (mutates W).

    side is the solver_side of H and lams the users' L2 weights
    (penalty_weights).  Returns (L_S, processes), as _update_side does.
    """
    return _update_side(model.user_factors, side, data.user_ptr, data.user_items, lams, 1,
                        "user half-step")


def update_items(model: FactorModel, data: InteractionSet, side: BlockSide,
                 lams: np.ndarray) -> tuple[float, int]:
    """Half-step: re-solve all item embeddings with users fixed (mutates H).

    side is the solver_side of W and lams the items' L2 weights
    (penalty_weights).  Returns (L_S, processes), as _update_side does.
    """
    return _update_side(model.item_factors, side, data.item_ptr, data.item_users, lams, 1,
                        "item half-step")


def compute_losses(iteration: int, loss_s: float, G_W: np.ndarray, G_H: np.ndarray,
                   model: FactorModel, lams: tuple[np.ndarray, np.ndarray],
                   alpha0: float) -> LossReport:
    """L = L_S + L_I + R from the observed error, both Gramians and the L2 weights.

    The implicit term uses the Frobenius inner product of the two
    Gramians: alpha0 * <W'W, H'H> equals alpha0 * sum of all squared
    scores, so the dense score matrix is never formed.
    """
    lam_u, lam_i = lams
    loss_i = alpha0 * float(np.tensordot(G_W, G_H))
    reg = float(lam_u @ (model.user_factors ** 2).sum(axis=1)
                + lam_i @ (model.item_factors ** 2).sum(axis=1))
    return LossReport(iteration=iteration, L=loss_s + loss_i + reg,
                      L_S=loss_s, L_I=loss_i, R=reg)


def project_user(ptr: np.ndarray, items: np.ndarray, side: BlockSide,
                 hp: Hyperparameters) -> np.ndarray:
    """Fold-in: one embedding row per unseen user, row u from the items
    items[ptr[u]:ptr[u + 1]] (a CSR, as InteractionSet.rows gives).

    side is solver_side(H, gramian(H), hp) of the item factors H, built
    once for all users folded in against them.  Each row takes
    projection_repeats block passes from zero in _update_side, the loop of
    the half-steps (a non-finite row raises IalsError); under the exact
    solver, the closed-form solve of a training user with these items.

    hp must be in direct mode (resolve against the training set first);
    there is no dataset here to derive a normalized lambda from.
    """
    if hp.lambda_ is None:
        raise InputError("project_user needs direct-mode hyperparameters; "
                         "call hp.resolve(train_data) first")
    lams = regularization_weight(np.diff(ptr), side.factors.shape[0],
                                 hp.alpha0, hp.nu, hp.lambda_)
    W = np.zeros((len(ptr) - 1, side.G.shape[0]))
    _update_side(W, side, ptr, items, lams, hp.projection_repeats, "fold-in")
    return W


def train(data: InteractionSet, hp: Hyperparameters, observer=None, eval_fn=None,
          ) -> tuple[FactorModel, list[LossReport]]:
    """Run T alternating iterations from a fresh seeded initialization.

    Each iteration updates users then items and reports the loss of the
    updated model.  train alone builds the solver_side of each factor
    matrix, once per iteration: W's for the item half-step, H's from the
    Gramian of the loss, for eval_fn and the next user half-step (not built
    when neither reads it).  compute_losses sums the report: L_S from the
    item half-step's residuals, L_I from the two sides' Gramians, R from
    L2 weights formed once per call.

    The observer, when given, is called after every iteration as
    observer(iteration, LossReport, metrics, phases): metrics is
    eval_fn(model, side of H) or None, and phases holds the wall seconds
    of the user half-step, the item half-step (with W's side), the loss
    (with H's side) and eval_fn (t_users, t_items, t_loss, t_eval) and
    the processes the larger half-step ran on, as the half-steps report
    it (workers).

    Returns the trained model and the per-iteration loss reports.
    """
    hp = hp.resolve(data)
    model = init_model(data.num_users, data.num_items, hp.dim,
                       sigma_star=hp.sigma_star, seed=hp.seed)
    W, H = model.user_factors, model.item_factors   # the half-steps update them in place
    lams = penalty_weights(data, hp)
    side_H = solver_side(H, gramian(H), hp) if hp.iterations else None
    reports: list[LossReport] = []
    for t in range(1, hp.iterations + 1):
        started = time.perf_counter()
        user_procs = update_users(model, data, side_H, lams[0])[1]
        del side_H   # stale once H moves: free it before W's side is built
        t_users = time.perf_counter() - started
        started = time.perf_counter()
        G_W = gramian(W)
        loss_s, item_procs = update_items(model, data, solver_side(W, G_W, hp), lams[1])
        t_items = time.perf_counter() - started
        started = time.perf_counter()
        G_H = gramian(H)
        report = compute_losses(t, loss_s, G_W, G_H, model, lams, hp.alpha0)
        side_H = solver_side(H, G_H, hp) if eval_fn is not None or t < hp.iterations else None
        t_loss = time.perf_counter() - started
        del G_W   # dead until the next iteration forms it: free it before eval_fn
        reports.append(report)
        started = time.perf_counter()
        metrics = eval_fn(model, side_H) if eval_fn is not None else None
        t_eval = time.perf_counter() - started
        if observer is not None:
            observer(t, report, metrics, {"t_users": t_users, "t_items": t_items,
                                          "t_loss": t_loss, "t_eval": t_eval,
                                          "workers": max(user_procs, item_procs)})
    return model, reports
