import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ials
from ials.dataset import InteractionSet
from ials.linalg import gramian
from ials.solver import penalty_weights, solver_side, update_users

import oracles


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_interactions(rng, n_users=8, n_items=6, min_deg=1, max_deg=None,
                      with_timestamps=False) -> InteractionSet:
    users, items = oracles.random_interactions(rng, n_users, n_items,
                                               min_deg=min_deg, max_deg=max_deg)
    ts = rng.integers(0, 10_000, size=len(users)).astype(float) if with_timestamps else None
    return InteractionSet.from_pairs(users, items, num_users=n_users,
                                     num_items=n_items, timestamps=ts)


@pytest.fixture
def small_data(rng):
    return make_interactions(rng, n_users=8, n_items=6, min_deg=1)


def csr(item_lists):
    """(ptr, items) of a list of item lists: the CSR project_user takes."""
    ptr = np.cumsum([0, *map(len, item_lists)])
    return ptr, np.concatenate([np.empty(0, dtype=np.int64), *item_lists]).astype(np.int64)


def half_step(update, model, data, hp):
    """L_S of update_users or update_items with the inputs train hands it:
    the solver_side of the fixed side and the L2 weights of the side it updates."""
    hp = hp.resolve(data)
    users = update is update_users
    lams = penalty_weights(data, hp)[0 if users else 1]
    fixed = model.item_factors if users else model.user_factors
    return update(model, data, solver_side(fixed, gramian(fixed), hp), lams)[0]


def run_python(script, *args, flag="-c"):
    """Run a Python script (flag "-c") or module (flag "-m") in a fresh
    interpreter that imports this ials."""
    env = dict(os.environ)
    src = str(Path(ials.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, flag, script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
