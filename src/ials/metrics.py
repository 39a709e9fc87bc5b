"""Ranking metrics and the two evaluation protocols.

Strong generalization: evaluation users were removed from training; their
fold-in items build an embedding at evaluation time and the remaining
(target) items must be ranked highly among all items.  Sampled
leave-one-out: each training user has one held-out item ranked against a
fixed list of sampled negatives using the trained embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dataset import LeaveOneOutSplit, StrongGeneralizationSplit
from .errors import DimensionMismatch, InputError
from .linalg import gramian
from .model import FactorModel, RankedList, rank_items
from .solver import Hyperparameters, project_user, solver_side


class EmptyRelevantSet(InputError):
    """Metrics are undefined when there is nothing relevant to find."""


@dataclass
class MetricReport:
    """Mean metric values over evaluation users.

    means maps metric name (e.g. "recall@20") to the arithmetic mean of
    the per-user values; per_user keeps the raw vectors when requested.
    """

    means: dict[str, float]
    n_users: int
    per_user: dict[str, np.ndarray] | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        """Flat {metric: value, n_users: count} object."""
        out = {name: float(v) for name, v in self.means.items()}
        out["n_users"] = self.n_users
        return out


def _relevant_array(relevant) -> np.ndarray:
    arr = np.asarray(sorted(relevant) if isinstance(relevant, (set, frozenset))
                     else relevant, dtype=np.int64)
    if arr.size == 0:
        raise EmptyRelevantSet("relevant item set is empty")
    return arr


def recall_at_k(ranked: RankedList, relevant, k: int) -> float:
    """Fraction of relevant items in the top k, normalized by min(k, |relevant|).

    The min-normalizer lets a short relevant set still reach 1.0 when k
    exceeds it, and a long one saturate when it fills the whole top k.
    """
    rel = _relevant_array(relevant)
    hits = int(np.isin(ranked.items[:k], rel, assume_unique=False).sum())
    return hits / min(k, rel.size)


@lru_cache(maxsize=None)
def _discounts(n: int) -> tuple[float, ...]:
    """1/log2(r+1) for ranks 1..n; exact-sum friendly scalar table."""
    return tuple(1.0 / math.log2(r + 1) for r in range(1, n + 1))


def ndcg_at_k(ranked: RankedList, relevant, k: int) -> float:
    """Binary-gain NDCG with the ideal DCG truncated at min(k, |relevant|)."""
    rel = _relevant_array(relevant)
    top = ranked.items[:k]
    hit = np.isin(top, rel, assume_unique=False)
    disc = _discounts(k)
    # fsum: the result is the correctly rounded sum, independent of term order
    dcg = math.fsum(disc[r] for r in range(top.size) if hit[r])
    ideal = math.fsum(disc[: min(k, rel.size)])
    return dcg / ideal


def hit_rate_at_k(rank_of_holdout: int | None, k: int) -> float:
    """1.0 when the holdout landed at rank <= k (1-based), else 0.0."""
    return 1.0 if rank_of_holdout is not None and rank_of_holdout <= k else 0.0


def evaluate_strong_generalization(model: FactorModel, split: StrongGeneralizationSplit,
                                   hp: Hyperparameters, recall_ks=(20, 50),
                                   ndcg_ks=(100,), keep_per_user: bool = False,
                                   ) -> MetricReport:
    """Project each holdout user from fold-in items and rank the rest.

    Fold-in items are removed from the candidate ranking (the user already
    has them); metrics are computed against the target items and averaged
    in user order.
    """
    if model.num_items != split.train.num_items:
        raise DimensionMismatch(
            f"model has {model.num_items} items, split vocabulary {split.train.num_items}")
    hp = hp.resolve(split.train)
    H = model.item_factors
    side = solver_side(H, gramian(H), hp)
    max_k = max([*recall_ks, *ndcg_ks])

    users = split.users
    names = [f"recall@{k}" for k in recall_ks] + [f"ndcg@{k}" for k in ndcg_ks]
    values = {name: np.zeros(users.size) for name in names}
    for idx, u in enumerate(users):
        fold_in, target = split.fold_in.items_of(u), split.target.items_of(u)
        w = project_user(fold_in, side, hp)
        ranked = rank_items(H @ w, exclude=fold_in, k=max_k)
        for k in recall_ks:
            values[f"recall@{k}"][idx] = recall_at_k(ranked, target, k)
        for k in ndcg_ks:
            values[f"ndcg@{k}"][idx] = ndcg_at_k(ranked, target, k)

    means = {name: float(v.mean()) if v.size else 0.0 for name, v in values.items()}
    return MetricReport(means=means, n_users=int(users.size),
                        per_user=values if keep_per_user else None)


def evaluate_sampled(model: FactorModel, split: LeaveOneOutSplit, ks=(10,),
                     keep_per_user: bool = False) -> MetricReport:
    """Rank each user's holdout item against their sampled negatives.

    Uses the trained user embedding directly (leave-one-out users stay in
    the training set).  The holdout's rank among the 1 + n_negatives
    candidates follows the shared tie rule: a negative places ahead on a
    strictly higher score, or an equal score with a lower item index.  A
    NaN score ranks last, as in rank_items.
    """
    if model.num_items != split.train.num_items:
        raise DimensionMismatch(
            f"model has {model.num_items} items, split vocabulary {split.train.num_items}")
    if split.users.size and int(split.users.max()) >= model.num_users:
        raise DimensionMismatch(
            f"split references user {int(split.users.max())} "
            f"but model has {model.num_users} users")

    W, H = model.user_factors, model.item_factors
    names = [f"hr@{k}" for k in ks] + [f"ndcg@{k}" for k in ks]
    values = {name: np.zeros(split.users.size) for name in names}

    for idx in range(split.users.size):
        u = int(split.users[idx])
        held = int(split.holdout[idx])
        negs = split.negatives[idx]
        w = W[u]
        s_held = float(H[held] @ w)
        s_negs = H[negs] @ w
        if math.isnan(s_held):  # behind every number and every lower-index NaN
            ahead = int((~np.isnan(s_negs) | (negs < held)).sum())
        else:
            ahead = int(((s_negs > s_held) | ((s_negs == s_held) & (negs < held))).sum())
        rank = 1 + ahead
        for k in ks:
            values[f"hr@{k}"][idx] = hit_rate_at_k(rank, k)
            values[f"ndcg@{k}"][idx] = (1.0 / math.log2(rank + 1)) if rank <= k else 0.0

    means = {name: float(v.mean()) if v.size else 0.0 for name, v in values.items()}
    return MetricReport(means=means, n_users=int(split.users.size),
                        per_user=values if keep_per_user else None)
