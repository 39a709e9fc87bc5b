"""The benchmark's workloads: generated data shape, CLI flags, reference bands.

BENCHMARK.json lists the workloads the benchmark runs.  strongen-d512-exact
is defined here but not listed there: its single loop takes 25-35 s on
two cores, and three workloads of that size do not fit the benchmark's
time budget.  Run it by hand for the block-versus-exact comparison:

    python3 perfbench/run.py --workload strongen-d512-exact --seed 1 --seconds 40

Each workload is one closed loop: a single caller runs `ials split`,
`ials train` and `ials evaluate` in sequence, then the next loop starts.
The workload seed seeds the generator and is passed as `--seed` to every
command, so one seed fixes the data, the split and the initialization.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import Shape

# ML-1M-shaped (3706 items, at least 20 items per user, mean degree 165,
# timestamps) with a fifth of its 6040 users, so that many short loops fit
# in one run: on a shared machine their median is far steadier.
ML1M = Shape(users=1200, items=3706, nnz=200_000, min_degree=20,
             degree_sigma=1.0, zipf=0.9, communities=20, affinity=8.0)

# Scaled-down ML-20M strong generalization: heavy-tailed users, Zipf items,
# 1024 = 2d items, 300 training users plus 50 validation and 50 test users.
ML20M_SMALL = Shape(users=400, items=1024, nnz=40_000, min_degree=20,
                    degree_sigma=1.0, zipf=0.9, communities=32, affinity=100.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    protocol: str            # "loo" or "strong-gen"
    iterations: int
    split_flags: tuple
    hp: dict                 # Hyperparameters fields, also written out as flags
    eval_flags: tuple
    recall_ks: tuple
    ndcg_ks: tuple
    # Reference band (lo, hi) of final_loss and each quality metric: 0.8x the
    # lowest and 1.2x the highest value over seeds 1-10 of the unchanged
    # program, wide enough for any seed, narrow enough to catch a wrong answer.
    band: dict

    def hp_flags(self, with_dim: bool = True) -> list[str]:
        out = []
        for field, value in self.hp.items():
            if field != "dim" or with_dim:
                out += [f"--{field.replace('_', '-')}", str(value)]
        return out


def _hp(dim: int, solver: str) -> dict:
    hp = {"dim": dim, "alpha0": 0.1, "lambda_star": 0.003, "solver": solver}
    if solver == "block":
        hp.update(block_size=128, projection_repeats=8)
    return hp


_STRONGEN = dict(
    shape=ML20M_SMALL, protocol="strong-gen", iterations=1,
    split_flags=("--holdout-users", "50", "--validation-users", "50"),
    eval_flags=("--part", "test"), recall_ks=(10, 20), ndcg_ks=(10, 100),
)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="loo-ml1m-d64",
        why=("ML-1M-shaped sampled leave-one-out at d=64: cheap solves, so text "
             "parsing, split-dir I/O, the per-entity Python loop and the loss dominate"),
        shape=ML1M, protocol="loo", iterations=2,
        split_flags=("--negatives", "100"),
        hp=_hp(64, "exact"),
        eval_flags=(),
        # With one held-out item recall@20 is HR@20; ndcg@100 ranks all 101
        # candidates.  Both make the strong-gen metric names defined here too.
        recall_ks=(), ndcg_ks=(10, 20, 100),
        band={"final_loss": (5.7e4, 8.8e4), "hr_at_10": (0.38, 0.62),
              "ndcg_at_10": (0.25, 0.42), "recall_at_20": (0.46, 0.75),
              "ndcg_at_100": (0.33, 0.54)},
    ),
    Workload(
        name="strongen-d512-exact",
        why=("scaled-down ML-20M strong generalization at d=512, exact solver: "
             "d^3 Cholesky solves and exact fold-in dominate, I/O is negligible"),
        hp=_hp(512, "exact"), **_STRONGEN,
        band={"final_loss": (3800.0, 6300.0), "hr_at_10": (0.72, 1.0),
              "ndcg_at_10": (0.24, 0.40), "recall_at_20": (0.23, 0.43),
              "ndcg_at_100": (0.29, 0.52)},
    ),
    Workload(
        name="strongen-d512-block",
        why=("scaled-down ML-20M strong generalization at d=512, block solver (b=128, "
             "8 fold-in passes): d x d assembly per entity, b x b solves and fold-in "
             "dominate, I/O is negligible"),
        hp=_hp(512, "block"), **_STRONGEN,
        band={"final_loss": (4800.0, 7900.0), "hr_at_10": (0.72, 1.0),
              "ndcg_at_10": (0.24, 0.43), "recall_at_20": (0.23, 0.45),
              "ndcg_at_100": (0.29, 0.53)},
    ),
)}
