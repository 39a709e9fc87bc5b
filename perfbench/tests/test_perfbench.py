"""Tests of the benchmark itself: generator, output checks, spans, tracer."""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = gen.Shape(users=60, items=40, nnz=900, min_degree=6, degree_sigma=0.8,
                 zipf=0.9, communities=3, affinity=4.0)

TINY_LOO = dataclasses.replace(
    WORKLOADS["loo-ml1m-d64"], name="tiny-loo", shape=TINY,
    split_flags=("--negatives", "10"),
    hp={"dim": 4, "alpha0": 0.1, "lambda_star": 0.003, "solver": "exact"}, band={})
TINY_SG = dataclasses.replace(
    WORKLOADS["strongen-d512-block"], name="tiny-sg", shape=TINY, iterations=2,
    split_flags=("--holdout-users", "5", "--validation-users", "5"),
    hp={"dim": 8, "alpha0": 0.1, "lambda_star": 0.003, "solver": "block",
        "block_size": 4, "projection_repeats": 2}, band={})


# -- generator ---------------------------------------------------------------

def test_same_seed_gives_identical_bytes():
    a = gen.to_csv(*gen.generate(TINY, 3))
    assert a == gen.to_csv(*gen.generate(TINY, 3))
    assert a != gen.to_csv(*gen.generate(TINY, 4))


def test_distinct_pairs_hit_the_target():
    users, items, _, times = gen.generate(TINY, 5)
    shape = gen.realized_shape(users, items, TINY.users, TINY.items)
    assert shape["nnz"] == TINY.nnz == users.size
    assert shape["users"] == TINY.users
    assert shape["user_degree"][0] >= TINY.min_degree
    # timestamps increase within each user, so the latest item is well defined
    same_user = users[1:] == users[:-1]
    assert (np.diff(times)[same_user] > 0).all()


# -- output checks -----------------------------------------------------------

def write_log(path, losses):
    with open(path, "w", encoding="utf-8") as fh:
        for t, total in enumerate(losses, start=1):
            l_s, l_i = 0.5 * total, 0.25 * total
            fh.write(json.dumps({"iteration": t, "L": total, "L_S": l_s, "L_I": l_i,
                                 "R": total - l_s - l_i}) + "\n")
    return path


def test_jsonl_accepts_a_falling_loss(tmp_path):
    assert checks.jsonl_losses(write_log(tmp_path / "a.jsonl", [9.0, 5.0, 5.0]), 3) == [9, 5, 5]


@pytest.mark.parametrize("losses, message", [
    ([9.0, 5.0], "2 lines, expected 3"),          # truncated
    ([9.0, 5.0, 6.0], "rose"),                     # rising
    ([9.0, float("nan"), 4.0], "non-finite"),
])
def test_jsonl_rejects(tmp_path, losses, message):
    with pytest.raises(checks.CheckFailed, match=message):
        checks.jsonl_losses(write_log(tmp_path / "a.jsonl", losses), 3)


def test_jsonl_rejects_loss_parts_that_do_not_add_up(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(json.dumps({"iteration": 1, "L": 3.0, "L_S": 1.0, "L_I": 1.0,
                                "R": 0.5}) + "\n")
    with pytest.raises(checks.CheckFailed, match="L_S"):
        checks.jsonl_losses(path, 1)


def test_model_check_rejects_nan():
    from ials.model import init_model
    model = init_model(5, 4, 3)
    checks.model_finite(model)
    model.item_factors[2, 1] = np.nan
    with pytest.raises(checks.CheckFailed, match="item_factors"):
        checks.model_finite(model)


def test_report_and_band_checks():
    checks.same_report({"hr@10": 0.5, "n_users": 3}, {"hr@10": 0.5, "n_users": 3})
    with pytest.raises(checks.CheckFailed):
        checks.same_report({"hr@10": 0.5, "n_users": 3}, {"hr@10": 0.51, "n_users": 3})
    checks.in_band({"hr_at_10": 0.5}, {"hr_at_10": (0.4, 0.6)})
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.in_band({"hr_at_10": 0.3}, {"hr_at_10": (0.4, 0.6)})


# -- span arithmetic ---------------------------------------------------------

def test_self_times_on_a_hand_built_tree():
    tree = [
        ["cli.train", 0.0, 10.0, -1],
        ["solver.update_users", 1.0, 5.0, 0],
        ["linalg.solve_spd", 2.0, 3.0, 1],
        ["linalg.solve_spd", 3.5, 4.0, 1],
        ["solver.compute_losses", 6.0, 7.0, 0],
        ["cli.evaluate", 11.0, 12.0, -1],
    ]
    assert spans.self_times(tree) == [5.0, 2.5, 1.0, 0.5, 1.0, 1.0]
    m = spans.layer_metrics(tree, {}, loop_s=12.5)
    assert m["cli.self_s"] == 6.0
    assert m["solver.self_s"] == 3.5
    assert m["linalg.solve_spd_s"] == m["linalg.self_s"] == 1.5
    assert m["trace.uncovered_s"] == 1.5
    assert sum(m[f"{mod}.self_s"] for mod in spans.MODULES) + m["trace.uncovered_s"] == 12.5
    assert spans.module_self_by_root(tree) == {
        "cli.train": {"cli": 5.0, "solver": 3.5, "linalg": 1.5}, "cli.evaluate": {"cli": 1.0}}


def test_overlapping_children_are_covered_once():
    tree = [["a.x", 0.0, 10.0, -1], ["a.y", 1.0, 4.0, 0], ["a.z", 3.0, 6.0, 0],
            ["a.w", 9.0, 12.0, 0]]
    assert spans.self_times(tree)[0] == 10.0 - 5.0 - 1.0


# -- traced and untraced loops ------------------------------------------------

def patched_names():
    from ials.dataset import InteractionSet
    names = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.PATCHES}
    names[("InteractionSet", "from_pairs")] = InteractionSet.__dict__["from_pairs"]
    return names


def tiny_data(tmp_path, w):
    data = tmp_path / "data.csv"
    data.write_bytes(gen.to_csv(*gen.generate(w.shape, 1)))
    return data


@pytest.mark.parametrize("w", [TINY_LOO, TINY_SG], ids=lambda w: w.name)
def test_traced_loop_restores_every_patched_name(tmp_path, w):
    before = patched_names()
    result = worker.run_loop(w, 1, tiny_data(tmp_path, w), tmp_path / "loop", traced=True)
    after = patched_names()
    assert all(after[k] is before[k] for k in before)
    assert result["failures"] == []   # includes: module self times + uncovered == loop_s
    layers = result["layers"]
    assert layers["linalg.solve_spd_calls"] > 0
    assert layers["linalg.cholesky_per_solve"] == 1.0
    assert (layers["solver.project_user_calls"] > 0) == (w.protocol == "strong-gen")


def test_untraced_loop_installs_nothing(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced loop installed wrappers")
    monkeypatch.setattr(spans.Tracer, "install", refuse)
    result = worker.run_loop(TINY_LOO, 1, tiny_data(tmp_path, TINY_LOO),
                             tmp_path / "loop", traced=False)
    assert result["failures"] == [] and "layers" not in result
    assert math.isfinite(result["final_loss"])


def test_failing_command_is_reported(tmp_path):
    result = worker.run_loop(TINY_LOO, 1, tmp_path / "missing.csv", tmp_path / "loop",
                             traced=False)
    assert result["codes"] == {"split": 2}
    assert result["failures"]


# -- the benchmark definition ---------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])
    produced = set(spans.layer_metrics([], {}, 0.0)) | {
        "dataset.split_bytes", "trace.overhead_s", "fail_rate", "split_s", "evaluate_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loo-ml1m-d64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
