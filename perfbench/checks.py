"""Output checks that gate every loop of the benchmark.

Each check raises CheckFailed with a message; the worker records the
message and counts the loop as a failed operation.
"""

from __future__ import annotations

import json
import math

import numpy as np

# L = L_S + L_I + R is computed as one float sum; allow its rounding only.
LOSS_SUM_RTOL = 1e-9
# Both solvers minimize each block exactly, so L never rises beyond rounding.
LOSS_RISE_RTOL = 1e-9
# CLI and in-process evaluation run the same float operations.
EVAL_RTOL = 1e-12


class CheckFailed(Exception):
    pass


def exit_codes(codes: dict[str, int]) -> None:
    bad = {cmd: rc for cmd, rc in codes.items() if rc != 0}
    if bad:
        raise CheckFailed(f"commands exited non-zero: {bad}")


def jsonl_losses(path, iterations: int) -> list[float]:
    """The training log: T lines, finite L = L_S + L_I + R, L non-increasing."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if len(records) != iterations:
        raise CheckFailed(f"{path}: {len(records)} lines, expected {iterations}")
    losses = []
    for t, rec in enumerate(records, start=1):
        if rec.get("iteration") != t:
            raise CheckFailed(f"{path} line {t}: iteration {rec.get('iteration')!r}")
        parts = [rec.get(k) for k in ("L", "L_S", "L_I", "R")]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in parts):
            raise CheckFailed(f"{path} line {t}: non-finite loss {parts}")
        total, l_s, l_i, reg = parts
        if abs(total - (l_s + l_i + reg)) > LOSS_SUM_RTOL * abs(total):
            raise CheckFailed(f"{path} line {t}: L={total} != L_S + L_I + R")
        if losses and total > losses[-1] * (1 + LOSS_RISE_RTOL):
            raise CheckFailed(f"{path} line {t}: L rose from {losses[-1]} to {total}")
        losses.append(total)
    return losses


def model_finite(model) -> None:
    for name in ("user_factors", "item_factors"):
        if not np.isfinite(getattr(model, name)).all():
            raise CheckFailed(f"model {name} has non-finite entries")


def same_report(cli_json: dict, in_process: dict) -> None:
    """The CLI's evaluate JSON equals the library's evaluation of the model."""
    if set(cli_json) != set(in_process):
        raise CheckFailed(f"evaluate keys {sorted(cli_json)} != {sorted(in_process)}")
    for key, want in in_process.items():
        got = cli_json[key]
        if not math.isclose(got, want, rel_tol=EVAL_RTOL, abs_tol=0.0):
            raise CheckFailed(f"evaluate {key}: CLI {got} != in-process {want}")


def in_band(values: dict[str, float], band: dict[str, tuple[float, float]]) -> None:
    """Quality numbers inside the workload's recorded reference band."""
    for name, (lo, hi) in band.items():
        v = values[name]
        if not lo <= v <= hi:
            raise CheckFailed(f"{name}={v} outside reference band [{lo}, {hi}]")
