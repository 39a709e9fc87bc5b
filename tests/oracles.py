"""Brute-force reference implementations the tests compare against.

Everything here trades efficiency for obviousness: dense matrices,
explicit loops over every user-item pair, rank-by-rank metric evaluation.
None of it imports solver/metrics internals beyond plain data types
and the Cholesky solve primitive.
"""

from __future__ import annotations

import math

import numpy as np

from ials.errors import InputError
from ials.linalg import solve_spd


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
        x[start:end] = solve_spd(A[start:end, start:end], rhs)
    return x


def implicit_loss_double_loop(W, H, alpha0) -> float:
    total = 0.0
    for w in W:
        for h in H:
            total += float(w @ h) ** 2
    return alpha0 * total


def rank_by_score(scores, exclude=()) -> list[int]:
    """Descending score, ties broken by ascending item index."""
    excluded = set(int(e) for e in exclude)
    candidates = [i for i in range(len(scores)) if i not in excluded]
    return sorted(candidates, key=lambda i: (-scores[i], i))


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
