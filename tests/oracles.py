"""Brute-force reference implementations the tests compare against.

Everything here trades efficiency for obviousness: dense matrices,
explicit loops over every user-item pair, rank-by-rank metric evaluation,
text files read and written one line at a time.  None of it imports
solver/metrics internals beyond plain data types and the Cholesky solve
primitives, except solve_entity_block: the block step as it was before
its per-block side arrays, kept to pin the faster step byte for byte;
and losses_from_scratch, which hands fresh Gramians and L2 weights
(gramian, penalty_weights) to the loss report train makes
(compute_losses).
"""

from __future__ import annotations

import csv
import gzip
import math
import os
from array import array
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve, cholesky

from ials.dataset import EmptyDataset, InteractionSet, ParseError
from ials.errors import InputError
from ials.linalg import gramian, solve_factored, solve_spd
from ials.solver import (
    _WOODBURY_MIN_RATIO,
    _woodbury_cheaper,
    compute_losses,
    penalty_weights,
    solve_entity,
)


def rating_weight(count, other_side_size, alpha0, nu, lam):
    return lam * (count + alpha0 * other_side_size) ** nu


def dense_matrix(data) -> np.ndarray:
    """0/1 interaction matrix, users by items."""
    S = np.zeros((data.num_users, data.num_items))
    for u in range(data.num_users):
        S[u, data.items_of(u)] = 1.0
    return S


def full_loss(W, H, data, alpha0, nu, lam) -> float:
    """The training objective by direct summation over every pair."""
    S = dense_matrix(data)
    scores = W @ H.T
    loss_s = float((((scores - 1.0) ** 2) * S).sum())
    loss_i = alpha0 * float((scores ** 2).sum())
    reg = 0.0
    n_users, n_items = S.shape
    for u in range(n_users):
        lam_u = rating_weight(S[u].sum(), n_items, alpha0, nu, lam)
        reg += lam_u * float(W[u] @ W[u])
    for i in range(n_items):
        lam_i = rating_weight(S[:, i].sum(), n_users, alpha0, nu, lam)
        reg += lam_i * float(H[i] @ H[i])
    return loss_s + loss_i + reg


def losses_from_scratch(model, data, hp, iteration=0):
    """The loss report of a model from scratch: L_S over every observed
    pair, L_I and R from fresh Gramians and L2 weights of hp resolved
    against data."""
    hp = hp.resolve(data)
    W, H = model.user_factors, model.item_factors
    users, items = data.pairs()
    loss_s = float(((np.einsum("ij,ij->i", W[users], H[items]) - 1.0) ** 2).sum())
    return compute_losses(iteration, loss_s, gramian(W), gramian(H), model,
                          penalty_weights(data, hp), hp.alpha0)


def normal_equation_solution(observed_rows, all_rows, alpha0, lam_entity) -> np.ndarray:
    """Minimizer of one entity's quadratic, assembled by looping every row
    of the fixed side: weight alpha0 everywhere plus weight 1 with label 1
    on the observed rows."""
    d = all_rows.shape[1]
    A = lam_entity * np.eye(d)
    b = np.zeros(d)
    for h in all_rows:
        A += alpha0 * np.outer(h, h)
    for h in observed_rows:
        A += np.outer(h, h)
        b += h
    return np.linalg.solve(A, b)


def block_pass_dense(current, history, G, alpha0, lambda_entity, block_size):
    """One cyclic block coordinate descent pass on the fully assembled
    d x d system: each block solves A_BB x_B = b_B - A_B,outside x_outside."""
    d = G.shape[0]
    history = np.asarray(history, dtype=np.float64).reshape(-1, d)
    x = np.array(current, dtype=np.float64, copy=True)
    if x.shape != (d,):
        raise InputError(f"current has shape {x.shape}, expected ({d},)")
    A = history.T @ history + alpha0 * G
    A[np.diag_indices_from(A)] += lambda_entity
    b = history.sum(axis=0)
    for start in range(0, d, block_size):
        end = min(start + block_size, d)
        # rhs = b_B - A[B, outside] @ x[outside]; adding back the in-block
        # product avoids materializing the complement index set.
        rhs = b[start:end] - A[start:end] @ x + A[start:end, start:end] @ x[start:end]
        x[start:end] = solve_spd(A[start:end, start:end], rhs)[0]
    return x


def block_pass(current, history, G, alpha0, lambda_entity, block_size, g=None):
    """One cyclic block pass that assembles and factors every b x b block
    afresh and carries the residuals r = 1 - history @ x and g = alpha0 * G @ x
    across blocks, g updated on every coordinate: the kernel's Cholesky
    path, one pass at a time.  g, when given, is the start's alpha0 * G @ x."""
    d = G.shape[0]
    history = np.asarray(history, dtype=np.float64).reshape(-1, d)
    x = np.array(current, dtype=np.float64, copy=True)
    r = 1.0 - history @ x
    g = alpha0 * (G @ x) if g is None else np.array(g, dtype=np.float64, copy=True)
    for start in range(0, d, block_size):
        B = slice(start, min(start + block_size, d))
        h = history[:, B]
        A = h.T @ h + alpha0 * G[B, B]
        A.flat[:: A.shape[0] + 1] += lambda_entity
        delta = solve_spd(A, h.T @ r - g[B] - lambda_entity * x[B])[0]
        x[B] += delta
        r -= h @ delta
        g += alpha0 * (G[:, B] @ delta)
    return x


def solve_entity_block(current: np.ndarray, partners, side,
                       lambda_entity: float, passes: int = 1, g: np.ndarray | None = None,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The block step before each block kept its own side arrays: the path
    ials.solver.solve_entity_block replaces, with the same arguments and
    results.  It runs the flop model and D.min() / D.max() on every block's
    first pass, keeps the Cholesky and Woodbury caches apart, and reads
    alpha0 * G[B, B] and G[B.stop:, B] through strided views of G.
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
    # per block: the Cholesky factor, and (S, D^-1/2) on the n x n path
    chol = [None] * len(side.blocks)
    woodbury = [None] * len(side.blocks)
    for _ in range(passes):
        r = 1.0 - history @ x
        if g is None:
            g = side.alpha0 * (side.G @ x)
        for k, (B, lam, Q, rotated, *_) in enumerate(side.blocks):
            h = history[:, B]
            rhs = h.T @ r - g[B] - lambda_entity * x[B]
            if chol[k] is None:
                D = lam + lambda_entity
                if (_woodbury_cheaper(n, lam.size, passes)
                        and D.min() > _WOODBURY_MIN_RATIO * D.max()):
                    scale = 1.0 / np.sqrt(D)
                    woodbury[k] = rotated[partners] * scale, scale
            if woodbury[k] is not None:
                S, scale = woodbury[k]
                u = (Q.T @ rhs) * scale
                rhs = S @ u
            if chol[k] is not None:
                delta = solve_factored(chol[k], rhs)
            elif woodbury[k] is None:
                delta, chol[k] = solve_entity(h, side.alpha0 * side.G[B, B], lambda_entity, rhs)
            else:
                A = S @ S.T
                A.flat[:: n + 1] += 1.0
                delta, chol[k] = solve_spd(A, rhs)
            if woodbury[k] is not None:
                delta = Q @ ((u - S.T @ delta) * scale)
            x[B] += delta
            r -= h @ delta
            if B.stop < d:
                g[B.stop:] += side.alpha0 * (side.G[B.stop:, B] @ delta)
        g = None   # stale after the pass: the next one forms it from x
    return x, 1.0 - history @ x


def implicit_loss_double_loop(W, H, alpha0) -> float:
    total = 0.0
    for w in W:
        for h in H:
            total += float(w @ h) ** 2
    return alpha0 * total


def rank_by_score(scores, exclude=()) -> list[int]:
    """Descending score, ties broken by ascending item index, NaN last."""
    excluded = set(int(e) for e in exclude)
    candidates = [i for i in range(len(scores)) if i not in excluded]

    def key(i):
        nan = math.isnan(scores[i])
        return (nan, 0.0 if nan else -scores[i], i)
    return sorted(candidates, key=key)


def recall(ranking, relevant, k) -> float:
    rel = set(int(r) for r in relevant)
    hits = sum(1 for item in ranking[:k] if item in rel)
    return hits / min(k, len(rel))


def ndcg(ranking, relevant, k) -> float:
    rel = set(int(r) for r in relevant)
    terms = []
    for rank, item in enumerate(ranking[:k], start=1):
        if item in rel:
            terms.append(1.0 / math.log2(rank + 1))
    ideal = [1.0 / math.log2(rank + 1) for rank in range(1, min(k, len(rel)) + 1)]
    return math.fsum(terms) / math.fsum(ideal)


def hit_rate(rank, k) -> float:
    return 1.0 if rank is not None and rank <= k else 0.0


def holdout_rank(scores_by_item: dict, holdout: int) -> int:
    """1-based rank of the holdout among the scored candidates under the
    shared tie rule."""
    s_h = scores_by_item[holdout]
    ahead = sum(
        1 for item, s in scores_by_item.items()
        if item != holdout and (s > s_h or (s == s_h and item < holdout))
    )
    return 1 + ahead


def random_interactions(rng, n_users, n_items, min_deg=1, max_deg=None):
    """Random (users, items) pair lists where every user has at least
    min_deg distinct items."""
    max_deg = max_deg or n_items
    users, items = [], []
    for u in range(n_users):
        deg = int(rng.integers(min_deg, max_deg + 1))
        for i in rng.choice(n_items, size=deg, replace=False):
            users.append(u)
            items.append(int(i))
    return users, items


def exact_half_step(factors, fixed, ptr, partners, alpha0, lams):
    """Exact half-step one entity at a time, as first written: alpha0 * G
    and the diagonal index set per entity, scipy's Cholesky and cho_solve.
    Returns the new factors; the inputs are not modified."""
    fixed = np.ascontiguousarray(fixed, dtype=np.float64)
    G = fixed.T @ fixed
    G = (G + G.T) * 0.5
    out = np.array(factors, dtype=np.float64, copy=True)
    for e in range(out.shape[0]):
        history = fixed[partners[ptr[e]:ptr[e + 1]]]
        if history.shape[0] == 0:
            out[e] = 0.0
            continue
        A = history.T @ history + alpha0 * G
        A[np.diag_indices_from(A)] += lams[e]
        L = cholesky(A, lower=True, check_finite=False)
        out[e] = cho_solve((L, True), history.sum(axis=0), check_finite=False)
    return out


def strong_generalization_parts(data, n_holdout_users, n_validation_users,
                                fold_in_fraction, min_user_interactions, seed):
    """Per-user loop reference for ials.dataset.strong_generalization_split.

    Returns (validation, test), each {user: (fold-in items, target items)}
    with sorted item lists, for the users kept in that part.
    """
    counts = data.user_counts
    has_target = np.ceil(fold_in_fraction * counts) < counts
    eligible = np.flatnonzero(has_target & (counts >= min_user_interactions))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(eligible, size=n_holdout_users + n_validation_users, replace=False)
    train_items = {i for u in range(data.num_users) if u not in chosen
                   for i in data.items_of(u).tolist()}
    parts = []
    for users in (np.sort(chosen[:n_validation_users]), np.sort(chosen[n_validation_users:])):
        part = {}
        for u in users:
            row = data.items_of(u)
            perm = rng.permutation(row.size)
            n_fold = math.ceil(fold_in_fraction * row.size)
            fold_in = sorted(i for i in row[perm[:n_fold]].tolist() if i in train_items)
            target = sorted(i for i in row[perm[n_fold:]].tolist() if i in train_items)
            if fold_in and target:
                part[int(u)] = (fold_in, target)
        parts.append(part)
    return tuple(parts)


def leave_one_out_draws(data, n_negatives, seed, allow_seen_negatives=False):
    """Per-user loop reference for the draws of ials.dataset.leave_one_out_split.

    Returns (users, holdout, negatives) as int64 arrays.  Users with at
    least 2 items take part, ascending; one generator seeded with seed
    serves them in turn.  A user's holdout is the item at the first of its
    latest timestamps when data has timestamps, else the item at
    rng.integers(|I(u)|).  Then rng.choice draws n_negatives without
    replacement from np.delete of every item index at the user's items,
    or at the holdout alone with allow_seen_negatives.
    """
    rng = np.random.default_rng(seed)
    every_item = np.arange(data.num_items, dtype=np.int64)
    users, holdout, negatives = [], [], []
    for u in range(data.num_users):
        row = data.user_items[data.user_ptr[u]:data.user_ptr[u + 1]]
        if row.size < 2:
            continue
        if data.timestamps is not None:
            times = data.timestamps[data.user_ptr[u]:data.user_ptr[u + 1]].tolist()
            held = int(row[max(range(row.size), key=times.__getitem__)])  # first latest
        else:
            held = int(row[int(rng.integers(row.size))])
        blocked = [held] if allow_seen_negatives else row
        users.append(u)
        holdout.append(held)
        negatives.append(rng.choice(np.delete(every_item, blocked), size=n_negatives,
                                    replace=False))
    return (np.array(users, dtype=np.int64), np.array(holdout, dtype=np.int64),
            np.array(negatives, dtype=np.int64).reshape(len(users), n_negatives))


def _open_text(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def load_interactions_lines(path, *, delimiter=None, columns="user,item,rating,time",
                            min_rating=None) -> InteractionSet:
    """Raw interaction file parsed one line at a time with str.split and
    float(): the reference for ials.load_interactions (same arguments,
    same ParseError line numbers)."""
    if delimiter is None:
        base = str(path)[:-3] if str(path).endswith(".gz") else str(path)
        delimiter = "\t" if base.endswith(".tsv") else ","
    pos = {name: idx for idx, name in enumerate(c.strip() for c in columns.split(","))
           if name != "skip"}
    if min_rating is not None and "rating" not in pos:
        raise InputError(f"min_rating needs a rating column, got columns {columns!r}")
    need = max(pos["user"], pos["item"]) + 1
    user_index, item_index = {}, {}
    users, items, times = array("q"), array("q"), array("d")
    have_time = "time" in pos
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split(delimiter)
            try:
                if len(fields) < need:
                    raise ValueError(f"expected at least {need} fields, got {len(fields)}")
                rpos = pos.get("rating")
                if min_rating is not None:
                    if rpos >= len(fields):
                        raise ValueError("rating threshold set but no rating field")
                    if float(fields[rpos]) < min_rating:
                        continue
                elif rpos is not None and rpos < len(fields):
                    float(fields[rpos])
                ts, has_ts = 0.0, False
                if have_time and pos["time"] < len(fields):
                    ts, has_ts = float(fields[pos["time"]]), True
                u_key, i_key = fields[pos["user"]], fields[pos["item"]]
            except ValueError as exc:
                if lineno == 1:
                    continue  # header
                raise ParseError(f"{path} line {lineno}: {exc}") from exc
            users.append(user_index.setdefault(u_key, len(user_index)))
            items.append(item_index.setdefault(i_key, len(item_index)))
            if has_ts:
                times.append(ts)
            elif have_time:
                have_time = False
    if not users:
        raise EmptyDataset(f"no interactions loaded from {path}")
    return InteractionSet.from_pairs(
        np.frombuffer(users, dtype=np.int64), np.frombuffer(items, dtype=np.int64),
        num_users=len(user_index), num_items=len(item_index),
        timestamps=np.frombuffer(times, dtype=np.float64) if have_time and len(times) else None,
        user_ids=list(user_index), item_ids=list(item_index),
    )


def read_int_table_lines(path, width=None, may_be_empty=False) -> np.ndarray:
    """Split file read one line at a time with int(): the reference for
    ials.dataset._read_int_table (same arguments, same table, same
    ParseError and InputError messages)."""
    rows = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            where = f"{path} line {lineno}"
            try:
                row = [int(f) for f in line.replace("\t", ",").split(",")]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ParseError(f"{where}: expected integers separated by commas "
                                 f"or tabs, got {line!r}") from None
            if width is None and len(row) < 2:
                raise ParseError(f"{where}: expected at least 2 fields, got {len(row)}")
            width = width or len(row)
            if len(row) != width:
                raise ParseError(f"{where}: expected {width} fields, got {len(row)}")
            if min(row) < 0:
                raise ParseError(f"{where}: negative id")
            if max(row) >= 2 ** 63:
                raise ParseError(f"{where}: id too large")
            rows.append(row)
    if not rows:
        if may_be_empty:
            return np.empty((0, width or 2), dtype=np.int64)
        raise InputError(f"{path}: no rows")
    return np.array(rows, dtype=np.int64)


def _write_pairs_lines(path, users, items):
    with open(path, "w", encoding="utf-8") as fh:
        for u, i in zip(users, items):
            fh.write(f"{u},{i}\n")


def _write_holdout_users_lines(path, split, part):
    with open(path, "w", encoding="utf-8") as fh:
        for u in split.users:
            for i in getattr(split, part).items_of(u):
                fh.write(f"{u},{i}\n")


def write_id_maps_lines(out_dir, data) -> None:
    """Line-at-a-time reference for ials.dataset.write_id_maps."""
    for name, ids in (("user_map.csv", data.user_ids), ("item_map.csv", data.item_ids)):
        if ids is None:
            continue
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for idx, ext in enumerate(ids):
                writer.writerow([ext, idx])


def save_strong_generalization_lines(out_dir, validation, test) -> None:
    """Line-at-a-time reference for ials.save_strong_generalization."""
    os.makedirs(out_dir, exist_ok=True)
    out = Path(out_dir)
    _write_pairs_lines(out / "train.csv", *validation.train.pairs())
    _write_holdout_users_lines(out / "validation_fold_in.csv", validation, "fold_in")
    _write_holdout_users_lines(out / "validation_target.csv", validation, "target")
    _write_holdout_users_lines(out / "test_fold_in.csv", test, "fold_in")
    _write_holdout_users_lines(out / "test_target.csv", test, "target")


def save_leave_one_out_lines(out_dir, split) -> None:
    """Line-at-a-time reference for ials.save_leave_one_out."""
    os.makedirs(out_dir, exist_ok=True)
    out = Path(out_dir)
    _write_pairs_lines(out / "train.csv", *split.train.pairs())
    _write_pairs_lines(out / "test_holdout.csv", split.users, split.holdout)
    with open(out / "test_negatives.csv", "w", encoding="utf-8") as fh:
        for u, negs in zip(split.users, split.negatives):
            fh.write(",".join([str(u)] + [str(n) for n in negs]) + "\n")
