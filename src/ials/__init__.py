"""Implicit-feedback matrix factorization with alternating least squares.

Train on positive-only user-item interactions, score and rank items, and
evaluate under the strong-generalization and sampled leave-one-out
protocols.  The `ials` command line wraps this API: split, train,
evaluate, sweep.
"""

from .dataset import (
    EmptyDataset,
    HoldoutUser,
    InsufficientUsers,
    InteractionSet,
    LeaveOneOutSplit,
    ParseError,
    StrongGeneralizationSplit,
    UserTooSparse,
    leave_one_out_split,
    load_interactions,
    load_leave_one_out,
    load_strong_generalization,
    save_leave_one_out,
    save_strong_generalization,
    strong_generalization_split,
)
from .errors import DimensionMismatch, IalsError, InputError
from .linalg import NotPositiveDefinite, gramian, solve_spd
from .metrics import (
    EmptyRelevantSet,
    MetricReport,
    evaluate_sampled,
    evaluate_strong_generalization,
    hit_rate_at_k,
    ndcg_at_k,
    recall_at_k,
)
from .model import (
    FactorModel,
    RankedList,
    init_model,
    load_model,
    rank_items,
    save_model,
)
from .solver import (
    Hyperparameters,
    LossReport,
    compute_losses,
    effective_lambda,
    effective_lambda_from_counts,
    project_user,
    regularization_weight,
    solve_entity,
    solve_entity_block,
    train,
    update_items,
    update_users,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "EmptyDataset",
    "EmptyRelevantSet",
    "FactorModel",
    "HoldoutUser",
    "Hyperparameters",
    "IalsError",
    "InputError",
    "InsufficientUsers",
    "InteractionSet",
    "LeaveOneOutSplit",
    "LossReport",
    "MetricReport",
    "NotPositiveDefinite",
    "ParseError",
    "RankedList",
    "StrongGeneralizationSplit",
    "UserTooSparse",
    "compute_losses",
    "effective_lambda",
    "effective_lambda_from_counts",
    "evaluate_sampled",
    "evaluate_strong_generalization",
    "gramian",
    "hit_rate_at_k",
    "init_model",
    "leave_one_out_split",
    "load_interactions",
    "load_leave_one_out",
    "load_model",
    "load_strong_generalization",
    "ndcg_at_k",
    "project_user",
    "rank_items",
    "recall_at_k",
    "regularization_weight",
    "save_leave_one_out",
    "save_model",
    "save_strong_generalization",
    "solve_entity",
    "solve_entity_block",
    "solve_spd",
    "strong_generalization_split",
    "train",
    "update_items",
    "update_users",
]
