"""The two evaluation protocols, ranked and counted array-at-a-time.

Strong generalization: evaluation users were removed from training; their
fold-in items build an embedding at evaluation time and the remaining
(target) items must be ranked highly among all items, fold-in items
ranking last.  Sampled leave-one-out: each training user has one
held-out item ranked against a fixed list of sampled negatives using the
trained embedding; every copy of a repeated negative is a candidate.

Both rank a chunk of users at once with model.rank_items and count hits
in the top of each ranking: recall@k = hits / min(k, |relevant|) and
binary-gain NDCG@k = DCG / IDCG.  With one relevant item, recall@k is
HR@k and NDCG@k is 1/log2(rank + 1) within the top k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import LeaveOneOutSplit, StrongGeneralizationSplit
from .errors import DimensionMismatch
from .linalg import gramian
from .model import FactorModel, rank_items
from .solver import BlockSide, Hyperparameters, project_user, solver_side

# floats of scores or gathered candidate factors that one chunk of users
# forms at once: 2 MiB, whatever the item count or dim
_CHUNK_FLOATS = 2 ** 18


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


def _check_vocabulary(model: FactorModel, split) -> None:
    """DimensionMismatch unless model has the split vocabulary's item count."""
    if model.num_items != split.train.num_items:
        raise DimensionMismatch(
            f"model has {model.num_items} items, split vocabulary {split.train.num_items}")


def _discounts(n: int) -> np.ndarray:
    """1/log2(r+1) for ranks 1..n."""
    return np.array([1.0 / math.log2(r + 1) for r in range(1, n + 1)])


def _item_mask(ptr: np.ndarray, items: np.ndarray, num_items: int) -> np.ndarray:
    """(len(ptr) - 1, num_items) booleans; row r is true on items[ptr[r]:ptr[r + 1]]."""
    counts = np.diff(ptr)
    mask = np.zeros((counts.size, num_items), dtype=bool)
    mask[np.repeat(np.arange(counts.size), counts), items[ptr[0]:ptr[-1]]] = True
    return mask


def metric_names(recall_ks, ndcg_ks, recall_name: str = "recall") -> list[str]:
    """The means of a report, in order: recall_name@k for recall_ks, then ndcg@k."""
    return [f"{recall_name}@{k}" for k in recall_ks] + [f"ndcg@{k}" for k in ndcg_ks]


def _report(chunks, n_users: int, recall_ks, ndcg_ks, keep_per_user: bool,
            recall_name: str = "recall") -> MetricReport:
    """Per-user recall@k and NDCG@k, and their means, from the
    (rows, hits, n_relevant) of each chunk of users that an evaluator ranks.

    hits[u, r] is true when the item at rank r + 1 of user u's ranking is
    relevant, and n_relevant[u] counts the relevant items.  hits needs
    only min(max k, candidates) columns, since min(k, n_relevant) never
    exceeds the candidate count.
    """
    values = {name: np.zeros(n_users)
              for name in metric_names(recall_ks, ndcg_ks, recall_name)}
    for rows, hits, n_relevant in chunks:
        disc = _discounts(hits.shape[1])
        for k in recall_ks:
            values[f"{recall_name}@{k}"][rows] = (hits[:, :k].sum(axis=1)
                                                   / np.minimum(k, n_relevant))
        for k in ndcg_ks:
            # Each DCG is the correctly rounded sum of its gains, as fsum
            # gives: a sum with at most two nonzero terms is rounded once.
            gains = np.where(hits[:, :k], disc[:k], 0.0)
            dcg = gains.sum(axis=1)
            for u in np.flatnonzero(np.count_nonzero(gains, axis=1) > 2):
                dcg[u] = math.fsum(gains[u])
            sizes, which = np.unique(np.minimum(k, n_relevant), return_inverse=True)
            ideal = np.array([math.fsum(disc[:m]) for m in sizes])
            values[f"ndcg@{k}"][rows] = dcg / ideal[which]
    means = {name: float(v.mean()) if v.size else 0.0 for name, v in values.items()}
    return MetricReport(means=means, n_users=n_users,
                        per_user=values if keep_per_user else None)


def _strong_generalization_hits(model: FactorModel, split: StrongGeneralizationSplit,
                                hp: Hyperparameters, side: BlockSide | None, max_k: int):
    """Yield (rows, hits, n_relevant) per chunk of split.users: one project_user
    call folds in every user, fold-in items rank last, targets are relevant."""
    H = model.item_factors
    users = split.users
    fold_ptr, fold_items = split.fold_in.rows(users)
    target_ptr, target_items = split.target.rows(users)
    W = project_user(fold_ptr, fold_items, side or solver_side(H, gramian(H), hp), hp)
    rows = max(1, _CHUNK_FLOATS // H.shape[0])
    for first in range(0, users.size, rows):
        stop = min(first + rows, users.size)
        exclude = _item_mask(fold_ptr[first:stop + 1], fold_items, H.shape[0])
        ranked = rank_items(W[first:stop] @ H.T, exclude=exclude, k=max_k)
        relevant = _item_mask(target_ptr[first:stop + 1], target_items, H.shape[0])
        yield (slice(first, stop), np.take_along_axis(relevant, ranked, axis=1),
               np.diff(target_ptr[first:stop + 1]))


def evaluate_strong_generalization(model: FactorModel, split: StrongGeneralizationSplit,
                                   hp: Hyperparameters, recall_ks=(20, 50),
                                   ndcg_ks=(100,), keep_per_user: bool = False,
                                   side: BlockSide | None = None) -> MetricReport:
    """Project each holdout user from fold-in items and rank all items.

    Fold-in items rank last (the user already has them); metrics are
    computed against the target items and averaged in user order.  side,
    when given, is solver_side of the model's H under hp, as train hands
    it to eval_fn; without it the fold-in builds its own.
    """
    _check_vocabulary(model, split)
    hits = _strong_generalization_hits(model, split, hp.resolve(split.train), side,
                                       max([*recall_ks, *ndcg_ks]))
    return _report(hits, split.users.size, recall_ks, ndcg_ks, keep_per_user)


def _sampled_hits(model: FactorModel, split: LeaveOneOutSplit, max_k: int):
    """Yield (rows, hits, n_relevant) per chunk of split.users: the holdout
    and the negatives are the candidates, scored by one product, and the
    holdout is the one relevant item."""
    W, H = model.user_factors, model.item_factors
    n_candidates = 1 + split.negatives.shape[1]
    rows = max(1, _CHUNK_FLOATS // (n_candidates * model.dim))
    for first in range(0, split.users.size, rows):
        chunk = slice(first, first + rows)
        holdout, negatives = split.holdout[chunk, None], split.negatives[chunk]
        # In item order, a column's index breaks ties as its item's does;
        # the holdout's column is ahead of any copy of it.
        candidates = np.sort(np.column_stack((holdout, negatives)), axis=1)
        held_column = (negatives < holdout).sum(axis=1, keepdims=True)
        scores = np.matmul(H[candidates], W[split.users[chunk], :, None])[..., 0]
        yield (chunk, rank_items(scores, k=max_k) == held_column,
               np.ones(len(scores), dtype=np.int64))


def evaluate_sampled(model: FactorModel, split: LeaveOneOutSplit, ks=(10,),
                     keep_per_user: bool = False) -> MetricReport:
    """Rank each user's holdout item against their sampled negatives.

    Uses the trained user embedding directly (leave-one-out users stay in
    the training set) and ranks the 1 + n_negatives candidates with
    rank_items, ties going to the lower item index.  HR@k is recall@k with
    the holdout as the one relevant item.
    """
    _check_vocabulary(model, split)
    if split.users.size and int(split.users.max()) >= model.num_users:
        raise DimensionMismatch(
            f"split references user {int(split.users.max())} "
            f"but model has {model.num_users} users")
    return _report(_sampled_hits(model, split, max(ks)), split.users.size, ks, ks,
                   keep_per_user, recall_name="hr")
