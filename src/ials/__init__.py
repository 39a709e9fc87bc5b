"""Implicit-feedback matrix factorization with alternating least squares.

Train on positive-only user-item interactions, score and rank items, and
evaluate under the strong-generalization and sampled leave-one-out
protocols.  The `ials` command line wraps this API: split, train,
evaluate, sweep.  The API lives in the modules dataset (interaction
sets, splits and split files), solver (hyperparameters, training and
fold-in), metrics, model and linalg; errors holds the exceptions that
every module raises.
"""

from .errors import DimensionMismatch, IalsError, InputError

__version__ = "0.1.0"
