"""Seeded synthetic interaction data shaped like the paper's datasets.

Item popularity is Zipf-skewed and user degrees are heavy-tailed
(log-normal, clipped).  Users and items also fall into latent
communities, and a user prefers items of their own community, so a
factor model has structure to find and the quality metrics mean
something.  Each user's items are drawn without replacement (exponential
keys scaled by weight), so the number of distinct pairs is exactly the
sum of the degrees and hits the target; sampling with replacement would
lose a large share of it to deduplication.

The same shape and seed always give byte-identical CSV output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

# Distinct (user, item) pairs are kept below this share of an item
# catalogue per user, so the heaviest users still leave negatives to sample.
_MAX_DEGREE_SHARE = 0.6
_QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


@dataclass(frozen=True)
class Shape:
    """What to generate: sizes, skew and structure of the interaction data."""

    users: int
    items: int
    nnz: int                 # distinct (user, item) pairs
    min_degree: int          # fewest items per user
    degree_sigma: float      # log-normal spread of user degrees
    zipf: float              # item popularity exponent
    communities: int
    affinity: float          # weight multiplier for items of a user's community


def _user_degrees(rng: np.random.Generator, shape: Shape) -> np.ndarray:
    """Heavy-tailed degrees with the requested minimum, cap and exact sum."""
    cap = int(_MAX_DEGREE_SHARE * shape.items)
    if not shape.min_degree * shape.users <= shape.nnz <= cap * shape.users:
        raise ValueError(f"nnz {shape.nnz} does not fit {shape.users} users "
                         f"with degrees in [{shape.min_degree}, {cap}]")
    # Log-normal quantiles, dealt to users in random order: every seed has
    # the same degree profile, so seeds differ in who and what, not how much.
    raw = np.exp(shape.degree_sigma * ndtri((np.arange(shape.users) + 0.5) / shape.users))
    raw = raw[rng.permutation(shape.users)]
    extra = shape.nnz - shape.min_degree * shape.users
    deg = shape.min_degree + np.floor(raw / raw.sum() * extra).astype(np.int64)
    deg = np.minimum(deg, cap)
    # Hand the rounding and clipping remainder out one pair at a time,
    # largest users first, never past the cap.
    order = np.argsort(-raw, kind="stable")
    short = shape.nnz - int(deg.sum())
    while short > 0:
        room = order[deg[order] < cap][:short]
        deg[room] += 1
        short -= room.size
    return deg


def generate(shape: Shape, seed: int):
    """Return (users, items, ratings, times) arrays of distinct pairs.

    Rows are grouped by user and ordered by timestamp within a user.
    """
    rng = np.random.default_rng(seed)
    deg = _user_degrees(rng, shape)
    popularity = 1.0 / np.arange(1, shape.items + 1) ** shape.zipf
    popularity = popularity[rng.permutation(shape.items)]
    item_group = rng.permutation(np.arange(shape.items) % shape.communities)
    user_group = rng.permutation(np.arange(shape.users) % shape.communities)

    users_out, items_out = [], []
    for g in range(shape.communities):
        members = np.flatnonzero(user_group == g)
        if members.size == 0:
            continue
        weight = popularity * np.where(item_group == g, shape.affinity, 1.0)
        keys = rng.exponential(size=(members.size, shape.items)) / weight
        order = np.argsort(keys, axis=1, kind="stable")
        take = np.arange(shape.items)[None, :] < deg[members][:, None]
        users_out.append(np.repeat(members, deg[members]))
        items_out.append(order[take])
    users = np.concatenate(users_out)
    items = np.concatenate(items_out)

    # Shuffle each user's items into a random time order (the draw order
    # above is by preference), then give them strictly increasing times.
    by_user = np.lexsort((rng.random(users.size), users))
    users, items = users[by_user], items[by_user]
    first = np.searchsorted(users, np.arange(shape.users))
    rank = np.arange(users.size) - first[users]
    start = 956_703_932 + rng.integers(0, 3 * 10 ** 7, size=shape.users)
    times = start[users] + 60 * rank + rng.integers(0, 60, size=users.size)
    ratings = rng.integers(1, 6, size=users.size)
    return users, items, ratings, times


def to_csv(users, items, ratings, times) -> bytes:
    """user,item,rating,time rows with 1-based external ids, no header."""
    lines = map("{},{},{},{}\n".format, (users + 1).tolist(), (items + 1).tolist(),
                ratings.tolist(), times.tolist())
    return "".join(lines).encode("ascii")


def realized_shape(users, items, n_users: int, n_items: int) -> dict:
    """Sizes, distinct pairs and degree quantiles of generated data."""
    distinct = np.unique(users.astype(np.int64) * n_items + items).size
    user_deg = np.bincount(users, minlength=n_users)
    item_deg = np.bincount(items, minlength=n_items)
    return {
        "users": int(np.count_nonzero(user_deg)),
        "items": int(np.count_nonzero(item_deg)),
        "nnz": int(distinct),
        "degree_quantiles": list(_QUANTILES),
        "user_degree": np.quantile(user_deg, _QUANTILES, method="lower").tolist(),
        "item_degree": np.quantile(item_deg, _QUANTILES, method="lower").tolist(),
    }
