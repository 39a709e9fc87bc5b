import csv
import dataclasses
import inspect
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ials.cli as cli
import ials.dataset as ds
import ials.metrics as mt
from ials.cli import main
from ials.dataset import LOO_FILES, STRONG_GEN_FILES
from ials.errors import IalsError
from ials.model import FactorModel, load_model, save_model
from ials.solver import Hyperparameters

from conftest import run_python


def write_raw(path, rng, n_users=20, n_items=12, min_deg=5, max_deg=8,
              with_time=True):
    """Raw interaction CSV with string ids, one row per (user, item)."""
    lines = []
    t = 1000
    for u in range(n_users):
        deg = int(rng.integers(min_deg, max_deg + 1))
        items = rng.choice(n_items, size=min(deg, n_items), replace=False)
        for i in items:
            rating = float(rng.integers(1, 6))
            row = f"user{u},item{i},{rating}"
            if with_time:
                row += f",{t}"
                t += 1
            lines.append(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def raw_file(tmp_path, rng):
    return write_raw(tmp_path / "raw.csv", rng)


def make_strong_gen_dir(tmp_path, raw_file, seed=7):
    out = tmp_path / "sg"
    rc = main(["split", "--data", str(raw_file), "--protocol", "strong-gen",
               "--out", str(out), "--holdout-users", "4",
               "--validation-users", "3", "--seed", str(seed)])
    assert rc == 0
    return out


def make_loo_dir(tmp_path, raw_file, negatives=4):
    out = tmp_path / "loo"
    rc = main(["split", "--data", str(raw_file), "--protocol", "loo",
               "--out", str(out), "--negatives", str(negatives), "--seed", "3"])
    assert rc == 0
    return out


def read_output(path):
    """A file's bytes; a training log's records without their wall times,
    which differ from run to run."""
    if path.suffix != ".jsonl":
        return path.read_bytes()
    return [{k: v for k, v in json.loads(line).items() if not k.startswith("t_")}
            for line in path.read_text().splitlines()]


class TestSplitCommand:
    def test_strong_gen_writes_layout(self, tmp_path, raw_file, capsys):
        out = make_strong_gen_dir(tmp_path, raw_file)
        for name in STRONG_GEN_FILES:
            assert (out / name).exists(), name
        assert (out / "user_map.csv").exists()
        assert (out / "item_map.csv").exists()
        stdout = capsys.readouterr().out
        assert "loaded: users=20 items=12" in stdout
        assert "test users=4" in stdout

    def test_loo_writes_layout(self, tmp_path, raw_file, capsys):
        out = make_loo_dir(tmp_path, raw_file)
        for name in LOO_FILES:
            assert (out / name).exists(), name
        assert "negatives per user=4" in capsys.readouterr().out

    def test_missing_data_file_is_input_error(self, tmp_path):
        rc = main(["split", "--data", str(tmp_path / "nope.csv"),
                   "--protocol", "loo", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["--protocol", "loo", "--negatives", "-1"],
        ["--protocol", "loo", "--negatives", "0"],
        ["--protocol", "strong-gen", "--holdout-users", "5", "--validation-users", "-2"],
        ["--protocol", "loo", "--seed", "-1"],
    ])
    def test_bad_split_size_is_input_error(self, tmp_path, raw_file, capsys, argv):
        out = tmp_path / "split"
        assert main(["split", "--data", str(raw_file), "--out", str(out), *argv]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_negatives_beyond_the_pool_fail_before_allocating(self, tmp_path, raw_file,
                                                               capsys, caplog):
        # 20 users x 10**13 negatives x 8 bytes is far above 2**48 bytes:
        # allocating the negatives table first could never succeed
        out = tmp_path / "split"
        rc = main(["split", "--data", str(raw_file), "--protocol", "loo",
                   "--out", str(out), "--negatives", str(10 ** 13)])
        assert rc == 2
        assert not out.exists()
        assert "user 0: only " in caplog.text
        assert f"candidate items for {10 ** 13} negatives" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, raw_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--data", str(raw_file), "--wat", "1",
                  "--protocol", "loo", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


TRAIN_FLAGS = ["--dim", "3", "--alpha0", "0.2", "--lambda", "0.02",
               "--iterations", "3", "--seed", "1"]
EVAL_KS = ["--recall-ks", "3", "--ndcg-ks", "4"]


class TestTrainCommand:
    def test_strong_gen_logs_and_model(self, tmp_path, raw_file, capsys):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["train", "--split-dir", str(sg), "--protocol", "strong-gen",
                   "--out", str(out), *TRAIN_FLAGS, *EVAL_KS])
        assert rc == 0
        assert capsys.readouterr().out.strip() == str(out / "model-seed1.bin")

        records = [json.loads(line)
                   for line in (out / "train-seed1.jsonl").read_text().splitlines()]
        assert len(records) == 3
        assert [r["iteration"] for r in records] == [1, 2, 3]
        for r in records:
            assert r["L"] == pytest.approx(r["L_S"] + r["L_I"] + r["R"], rel=1e-12)
            assert min(r["t_users"], r["t_items"], r["t_loss"]) >= 0.0 and r["t_eval"] > 0.0
            assert r["workers"] >= 1
            assert set(r["validation"]) == {"recall@3", "ndcg@4", "n_users"}
            assert r["validation"]["n_users"] == 3
        # training loss is non-increasing across iterations
        losses = [r["L"] for r in records]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(losses, losses[1:]))

    def test_loo_has_no_validation_field(self, tmp_path, raw_file):
        loo = make_loo_dir(tmp_path, raw_file)
        out = tmp_path / "run"
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(out), *TRAIN_FLAGS])
        assert rc == 0
        records = [json.loads(line)
                   for line in (out / "train-seed1.jsonl").read_text().splitlines()]
        assert records and all("validation" not in r for r in records)

    def test_no_log_validation_flag(self, tmp_path, raw_file):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        out = tmp_path / "run"
        rc = main(["train", "--split-dir", str(sg), "--protocol", "strong-gen",
                   "--out", str(out), "--no-log-validation", *TRAIN_FLAGS])
        assert rc == 0
        records = [json.loads(line)
                   for line in (out / "train-seed1.jsonl").read_text().splitlines()]
        assert records and all("validation" not in r for r in records)

    def test_same_seed_is_byte_identical(self, tmp_path, raw_file):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--split-dir", str(sg), "--protocol",
                         "strong-gen", "--out", str(out), *TRAIN_FLAGS]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "model-seed1.bin").read_bytes() == (b / "model-seed1.bin").read_bytes()
        logs = [read_output(out / "train-seed1.jsonl") for out in outs]
        assert logs[0] == logs[1] and len(logs[0]) == 3

    def test_repeats_names_files_by_seed(self, tmp_path, raw_file, capsys):
        loo = make_loo_dir(tmp_path, raw_file)
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(out), "--repeats", "3", "--dim", "2",
                   "--alpha0", "0.1", "--lambda", "0.02", "--iterations", "1",
                   "--seed", "5"])
        assert rc == 0
        for seed in (5, 6, 7):
            assert (out / f"model-seed{seed}.bin").exists()
            assert (out / f"train-seed{seed}.jsonl").exists()
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_missing_dim_is_input_error(self, tmp_path, raw_file, caplog):
        loo = make_loo_dir(tmp_path, raw_file)
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "run"), "--alpha0", "0.1",
                   "--lambda", "0.02"])
        assert rc == 2
        assert "missing required option --dim" in caplog.text

    @pytest.mark.parametrize("where", ["train.csv", "--dim"])
    def test_unallocatable_size_is_input_error(self, tmp_path, raw_file, capsys, caplog,
                                               where):
        # user id 10**15 asks for a 7 PiB user index, dim 10**15 for a
        # 140 PiB factor matrix: sizes no machine can allocate, so numpy
        # fails at once instead of running out of memory later
        loo = make_loo_dir(tmp_path, raw_file)
        flags = list(TRAIN_FLAGS)
        if where == "train.csv":
            with open(loo / "train.csv", "a", encoding="utf-8") as fh:
                fh.write(f"{10 ** 15},0\n")
        else:
            flags[1] = str(10 ** 15)
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "run"), *flags])
        assert rc == 2
        assert "Unable to allocate" in caplog.text and "PiB" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_k_list_is_input_error(self, tmp_path, raw_file, capsys, caplog):
        loo = make_loo_dir(tmp_path, raw_file)
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "run"), *TRAIN_FLAGS, "--ndcg-ks", "x"])
        assert rc == 2
        assert "bad k list" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_hp_flags_cover_every_field(self):
        train_parser = cli.make_parser().parse_args(["train"]).parser
        actions = {a.dest: a for a in train_parser._actions}
        for f in dataclasses.fields(Hyperparameters):
            if f.name == "seed":
                continue
            action = actions[f.name]
            assert cli._flag(f.name) in action.option_strings
            if f.default not in (dataclasses.MISSING, None):
                assert f"(default {f.default})" in action.help
        assert "--lambda" in actions["lambda_"].option_strings

    def test_missing_regularization_is_input_error(self, tmp_path, raw_file):
        loo = make_loo_dir(tmp_path, raw_file)
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "run"), "--dim", "2",
                   "--alpha0", "0.1"])
        assert rc == 2

    def test_nan_alpha0_is_input_error(self, tmp_path, raw_file, capsys, caplog):
        loo = make_loo_dir(tmp_path, raw_file)
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "run"), "--dim", "2",
                   "--alpha0", "nan", "--lambda", "0.02"])
        assert rc == 2
        assert "alpha0 must be finite" in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text
        assert not list((tmp_path / "run").glob("model-*"))

    def test_block_solver_skips_empty_users(self, tmp_path, raw_file):
        # holdout and validation users are empty training rows; at alpha0 = 0
        # their block systems are zero, so only the shortcut to 0 solves them
        sg = make_strong_gen_dir(tmp_path, raw_file)
        for solver in ("exact", "block"):
            rc = main(["train", "--split-dir", str(sg), "--protocol", "strong-gen",
                       "--out", str(tmp_path / solver), "--dim", "4", "--alpha0", "0",
                       "--lambda", "0.05", "--solver", solver, "--block-size", "2",
                       "--iterations", "2"])
            assert rc == 0, solver

    def test_unsolvable_system_is_runtime_error(self, tmp_path, raw_file):
        # zero init with zero regularization and zero alpha0 produces an
        # all-zero normal matrix that no jitter can rescue
        loo = make_loo_dir(tmp_path, raw_file)
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "run"), "--dim", "2",
                   "--alpha0", "0", "--lambda", "0", "--sigma-star", "0",
                   "--iterations", "1"])
        assert rc == 1


class TestConfigFile:
    def test_all_options_from_config(self, tmp_path, raw_file, capsys):
        loo = make_loo_dir(tmp_path, raw_file)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# hyperparameters\n"
            "dim = 2\n"
            "alpha0 = 0.1\n"
            "lambda = 0.02   # direct mode\n"
            "iterations = 2\n",
            encoding="utf-8")
        out = tmp_path / "run"
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        records = (out / "train-seed0.jsonl").read_text().splitlines()
        assert len(records) == 2
        capsys.readouterr()

    def test_flag_overrides_config(self, tmp_path, raw_file):
        loo = make_loo_dir(tmp_path, raw_file)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 2\nalpha0 = 0.1\nlambda = 0.02\niterations = 4\n")
        out = tmp_path / "run"
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(out), "--config", str(cfg), "--iterations", "1"])
        assert rc == 0
        assert len((out / "train-seed0.jsonl").read_text().splitlines()) == 1

    def test_malformed_config_line(self, tmp_path, raw_file):
        loo = make_loo_dir(tmp_path, raw_file)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dim 2\n")
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 2

    def test_value_outside_choices(self, tmp_path, raw_file):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("protocol = strongen\n")
        out = tmp_path / "split"
        rc = main(["split", "--data", str(raw_file), "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("train", "iteration = 1\n"),
        ("evaluate", "model = x.bin\n"),
    ])
    def test_unknown_or_multi_value_key(self, tmp_path, raw_file, command, text):
        loo = make_loo_dir(tmp_path, raw_file)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        args = [command, "--split-dir", str(loo), "--protocol", "loo",
                "--out", str(out), "--config", str(cfg)]
        if command == "train":
            args += TRAIN_FLAGS
        assert main(args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, text, flags, outputs", [
        ("split", "allow_seen_negatives = true\n", ["--allow-seen-negatives"],
         ["test_negatives.csv"]),
        ("train", "solver = block\nblock-size = 2\n",
         ["--solver", "block", "--block-size", "2"],
         ["model-seed1.bin", "train-seed1.jsonl"]),
        ("train", "log_validation = false\n", ["--no-log-validation"],
         ["train-seed1.jsonl"]),
    ])
    def test_config_acts_like_flag(self, tmp_path, raw_file, command, text,
                                   flags, outputs):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        if command == "split":
            base = ["split", "--data", str(raw_file), "--protocol", "loo",
                    "--negatives", "4"]
        else:
            base = ["train", "--split-dir", str(make_strong_gen_dir(tmp_path, raw_file)),
                    "--protocol", "strong-gen", *TRAIN_FLAGS]
        runs = {}
        for name, extra in (("config", ["--config", str(cfg)]), ("flag", flags),
                            ("neither", [])):
            out = tmp_path / name
            assert main([*base, "--out", str(out), *extra]) == 0
            runs[name] = [read_output(out / f) for f in outputs]
        assert runs["config"] == runs["flag"]
        assert runs["config"] != runs["neither"]

    def test_config_not_utf8(self, tmp_path, raw_file, capsys, caplog):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe = 1\n")
        out = tmp_path / "split"
        rc = main(["split", "--data", str(raw_file), "--protocol", "loo",
                   "--out", str(out), "--config", str(cfg)])
        assert rc == 2
        assert not out.exists()
        assert f"cannot read config {cfg}" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, raw_file):
        loo = make_loo_dir(tmp_path, raw_file)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dim = two\nalpha0 = 0.1\nlambda = 0.02\n")
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 2


class TestEvaluateCommand:
    def _trained(self, tmp_path, raw_file, protocol):
        split = (make_strong_gen_dir if protocol == "strong-gen" else make_loo_dir)(
            tmp_path, raw_file)
        out = tmp_path / "run"
        args = ["train", "--split-dir", str(split), "--protocol", protocol,
                "--out", str(out), *TRAIN_FLAGS, "--repeats", "2"]
        if protocol == "strong-gen":
            args += EVAL_KS
        assert main(args) == 0
        models = [out / f"model-seed{s}.bin" for s in (1, 2)]
        return split, out, models

    def test_strong_gen_single_model(self, tmp_path, raw_file, capsys):
        split, _, models = self._trained(tmp_path, raw_file, "strong-gen")
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        rc = main(["evaluate", "--split-dir", str(split), "--protocol",
                   "strong-gen", "--model", str(models[0]),
                   "--alpha0", "0.2", "--lambda", "0.02", *EVAL_KS,
                   "--out", str(report_path)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) == {"recall@3", "ndcg@4", "n_users"}
        assert printed["n_users"] == 4  # test part by default
        assert json.loads(report_path.read_text()) == printed

    def test_validation_part_matches_training_log(self, tmp_path, raw_file, capsys):
        split, out, models = self._trained(tmp_path, raw_file, "strong-gen")
        last = json.loads((out / "train-seed1.jsonl").read_text().splitlines()[-1])
        capsys.readouterr()
        rc = main(["evaluate", "--split-dir", str(split), "--protocol",
                   "strong-gen", "--part", "validation", "--model",
                   str(models[0]), "--alpha0", "0.2", "--lambda", "0.02",
                   *EVAL_KS])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == last["validation"]

    def test_loo_multi_model_mean_and_std(self, tmp_path, raw_file, capsys):
        split, _, models = self._trained(tmp_path, raw_file, "loo")
        capsys.readouterr()
        rc = main(["evaluate", "--split-dir", str(split), "--protocol", "loo",
                   "--model", str(models[0]), str(models[1]),
                   "--ndcg-ks", "5"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) == {"hr@5", "hr@5_std", "ndcg@5", "ndcg@5_std",
                                "n_users", "n_models"}
        assert printed["n_models"] == 2
        assert printed["n_users"] == 20

    def test_loo_multi_model_mean_matches_singles(self, tmp_path, raw_file, capsys):
        split, _, models = self._trained(tmp_path, raw_file, "loo")
        singles = []
        for m in models:
            capsys.readouterr()
            assert main(["evaluate", "--split-dir", str(split), "--protocol",
                         "loo", "--model", str(m), "--ndcg-ks", "5"]) == 0
            singles.append(json.loads(capsys.readouterr().out))
        capsys.readouterr()
        assert main(["evaluate", "--split-dir", str(split), "--protocol",
                     "loo", "--model", str(models[0]), str(models[1]),
                     "--ndcg-ks", "5"]) == 0
        combined = json.loads(capsys.readouterr().out)
        for name in ("hr@5", "ndcg@5"):
            values = [s[name] for s in singles]
            assert combined[name] == pytest.approx(np.mean(values))
            assert combined[name + "_std"] == pytest.approx(np.std(values, ddof=1))

    def test_strong_gen_reads_each_model_once(self, tmp_path, raw_file, monkeypatch):
        split, _, models = self._trained(tmp_path, raw_file, "strong-gen")
        loaded = []
        load = cli.load_model
        monkeypatch.setattr(cli, "load_model", lambda path: loaded.append(path) or load(path))
        assert main(["evaluate", "--split-dir", str(split), "--protocol", "strong-gen",
                     "--model", str(models[0]), str(models[1]),
                     "--alpha0", "0.2", "--lambda", "0.02", *EVAL_KS]) == 0
        assert [str(p) for p in loaded] == [str(m) for m in models]

    def test_strong_gen_models_of_different_dim(self, tmp_path, raw_file, capsys,
                                                monkeypatch):
        # the exact fold-in of each model is one block as wide as that model,
        # not as the first --model: the d=5 model must not split into blocks of 3
        split = make_strong_gen_dir(tmp_path, raw_file)
        models = []
        for dim in ("3", "5"):
            out = tmp_path / f"run-d{dim}"
            flags = [*TRAIN_FLAGS]
            flags[1] = dim
            assert main(["train", "--split-dir", str(split), "--protocol", "strong-gen",
                         "--out", str(out), *flags]) == 0
            models.append(out / "model-seed1.bin")
        folded = []
        project = cli.mt.project_user

        def spy(*args):   # keeps every folded-in row, in order
            W = project(*args)
            folded.extend(W)
            return W
        monkeypatch.setattr(cli.mt, "project_user", spy)

        def evaluate(*paths):
            capsys.readouterr()
            folded.clear()
            assert main(["evaluate", "--split-dir", str(split), "--protocol", "strong-gen",
                         "--model", *map(str, paths), "--alpha0", "0.2", "--lambda", "0.02",
                         *EVAL_KS]) == 0
            return json.loads(capsys.readouterr().out), list(folded)

        singles = [evaluate(m) for m in models]
        combined, both = evaluate(*models)
        assert [w.tobytes() for w in both] == [w.tobytes() for _, ws in singles for w in ws]
        for name in ("recall@3", "ndcg@4"):
            values = [report[name] for report, _ in singles]
            assert combined[name] == np.mean(values)
            assert combined[name + "_std"] == np.std(values, ddof=1)

    def test_no_model_is_input_error(self, tmp_path, raw_file):
        split = make_loo_dir(tmp_path, raw_file)
        rc = main(["evaluate", "--split-dir", str(split), "--protocol", "loo"])
        assert rc == 2

    def test_missing_model_file_is_input_error(self, tmp_path, raw_file, caplog):
        split = make_loo_dir(tmp_path, raw_file)
        missing = tmp_path / "missing.bin"
        rc = main(["evaluate", "--split-dir", str(split), "--protocol", "loo",
                   "--model", str(missing)])
        assert rc == 2
        assert f"cannot open {missing}" in caplog.text

    def test_bad_part_is_input_error(self, tmp_path, raw_file):
        split, _, models = self._trained(tmp_path, raw_file, "strong-gen")
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--split-dir", str(split), "--protocol",
                  "strong-gen", "--part", "holdout", "--model", str(models[0]),
                  "--alpha0", "0.2", "--lambda", "0.02"])
        assert exc.value.code == 2

    def test_user_without_fold_in_is_skipped(self, tmp_path, raw_file, capsys, caplog):
        split, _, models = self._trained(tmp_path, raw_file, "strong-gen")
        rows = (split / "test_fold_in.csv").read_text().splitlines()
        user = rows[0].split(",")[0]
        kept = [row for row in rows if row.split(",")[0] != user]
        (split / "test_fold_in.csv").write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        rc = main(["evaluate", "--split-dir", str(split), "--protocol", "strong-gen",
                   "--model", str(models[0]), "--alpha0", "0.2", "--lambda", "0.02",
                   *EVAL_KS])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n_users"] == 3
        assert f"user {user} has no fold-in items, skipping" in caplog.text

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_no_usable_test_user_is_input_error(self, tmp_path, raw_file, capsys, caplog,
                                                command):
        split, _, models = self._trained(tmp_path, raw_file, "strong-gen")
        row = (split / "test_target.csv").read_text().splitlines()[0]
        (split / "test_target.csv").write_text(row + "\n")
        user = row.split(",")[0]
        rows = (split / "test_fold_in.csv").read_text().splitlines()
        kept = [r for r in rows if r.split(",")[0] != user]
        assert len(set(r.split(",")[0] for r in kept)) == 3
        (split / "test_fold_in.csv").write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        if command == "train":
            argv = ["train", "--out", str(tmp_path / "again"), *TRAIN_FLAGS]
        else:
            argv = ["evaluate", "--model", str(models[0]), "--alpha0", "0.2",
                    "--lambda", "0.02", *EVAL_KS]
        rc = main([*argv, "--split-dir", str(split), "--protocol", "strong-gen"])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert f"{split}: no test user has both fold-in and target items" in caplog.text

    def test_validation_part_under_loo_is_input_error(self, tmp_path, raw_file, capsys,
                                                      caplog):
        split, _, models = self._trained(tmp_path, raw_file, "loo")
        capsys.readouterr()
        rc = main(["evaluate", "--split-dir", str(split), "--protocol", "loo",
                   "--part", "validation", "--model", str(models[0])])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert f"{split} has no validation users" in caplog.text

    def test_validation_part_without_validation_users(self, tmp_path, raw_file):
        out = tmp_path / "sg0"
        assert main(["split", "--data", str(raw_file), "--protocol",
                     "strong-gen", "--out", str(out), "--holdout-users", "4",
                     "--validation-users", "0"]) == 0
        run = tmp_path / "run"
        assert main(["train", "--split-dir", str(out), "--protocol",
                     "strong-gen", "--out", str(run), *TRAIN_FLAGS]) == 0
        rc = main(["evaluate", "--split-dir", str(out), "--protocol",
                   "strong-gen", "--part", "validation", "--model",
                   str(run / "model-seed1.bin"), "--alpha0", "0.2",
                   "--lambda", "0.02"])
        assert rc == 2


# Split, train and evaluate with both solvers, in a fresh process that
# fails if scipy.linalg was imported: by `import ials.cli`, or later by
# the solver's first BLAS thread pin.
STARTUP_SCRIPT = """
import sys
import ials.cli

def check(where):
    if "scipy.linalg" in sys.modules:
        sys.exit(f"scipy.linalg imported {where}")

check("by import ials.cli")
raw, out = sys.argv[1:]
run = [["split", "--data", raw, "--protocol", "strong-gen", "--out", out + "/sg",
        "--holdout-users", "4", "--validation-users", "3", "--seed", "7"]]
for solver in ("exact", "block"):
    run += [["train", "--split-dir", out + "/sg", "--protocol", "strong-gen",
             "--out", out + "/" + solver, "--dim", "4", "--alpha0", "0.2",
             "--lambda", "0.02", "--iterations", "2", "--solver", solver,
             "--block-size", "2", "--recall-ks", "3", "--ndcg-ks", "4"],
            ["evaluate", "--split-dir", out + "/sg", "--protocol", "strong-gen",
             "--model", out + "/" + solver + "/model-seed0.bin", "--alpha0", "0.2",
             "--lambda", "0.02", "--solver", solver, "--block-size", "2",
             "--recall-ks", "3", "--ndcg-ks", "4", "--out", out + "/" + solver + ".json"]]
for argv in run:
    if ials.cli.main(argv) != 0:
        sys.exit("failed: ials " + " ".join(argv))
    check("by ials " + " ".join(argv))
"""


def test_loop_never_imports_scipy_linalg(tmp_path, raw_file):
    done = run_python(STARTUP_SCRIPT, raw_file, tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]
    for solver in ("exact", "block"):
        assert json.loads((tmp_path / f"{solver}.json").read_text())["n_users"] == 4


class TestBrokenSplitDir:
    @pytest.mark.parametrize("name", LOO_FILES)
    def test_empty_loo_file(self, tmp_path, raw_file, caplog, name):
        loo = make_loo_dir(tmp_path, raw_file)
        (loo / name).write_text("")
        rc = main(["evaluate", "--split-dir", str(loo), "--protocol", "loo",
                   "--model", str(tmp_path / "model.bin")])
        assert rc == 2
        assert f"{name}: no rows" in caplog.text

    @pytest.mark.parametrize("name", LOO_FILES)
    def test_missing_loo_file(self, tmp_path, raw_file, caplog, name):
        loo = make_loo_dir(tmp_path, raw_file)
        (loo / name).unlink()
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "run"), *TRAIN_FLAGS])
        assert rc == 2
        assert f"cannot open {loo / name}" in caplog.text

    @pytest.mark.parametrize("name", ["train.csv", "test_fold_in.csv", "test_target.csv"])
    def test_empty_strong_gen_file(self, tmp_path, raw_file, caplog, name):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        (sg / name).write_text("")
        rc = main(["train", "--split-dir", str(sg), "--protocol", "strong-gen",
                   "--out", str(tmp_path / "run"), *TRAIN_FLAGS])
        assert rc == 2
        assert f"{name}: no rows" in caplog.text

    @pytest.mark.parametrize("name", ["validation_fold_in.csv", "validation_target.csv"])
    def test_half_present_validation_files(self, tmp_path, raw_file, caplog, name):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        (sg / name).unlink()
        rc = main(["train", "--split-dir", str(sg), "--protocol", "strong-gen",
                   "--out", str(tmp_path / "run"), *TRAIN_FLAGS])
        assert rc == 2
        assert f"missing {name}" in caplog.text
        assert not list((tmp_path / "run").glob("model-*"))

    @pytest.mark.parametrize("name", ["test_holdout.csv", "test_negatives.csv"])
    def test_duplicate_user_row(self, tmp_path, raw_file, caplog, name):
        loo = make_loo_dir(tmp_path, raw_file)
        lines = (loo / name).read_text().splitlines()
        (loo / name).write_text("\n".join(lines + [lines[2]]) + "\n")
        rc = main(["train", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "run"), *TRAIN_FLAGS])
        assert rc == 2
        user = lines[2].split(",")[0]
        assert f"{name}: user {user} has more than one row" in caplog.text

    @pytest.mark.parametrize("name,command", [
        ("validation_fold_in.csv", "train"), ("validation_target.csv", "train"),
        ("test_fold_in.csv", "evaluate"), ("test_target.csv", "evaluate")])
    def test_repeated_strong_gen_pair(self, tmp_path, raw_file, caplog, name, command):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        lines = (sg / name).read_text().splitlines()
        (sg / name).write_text("\n".join(lines + [lines[0]]) + "\n")
        rc = main(self._argv(command, sg, "strong-gen", tmp_path))
        assert rc == 2
        user, item = lines[0].split(",")
        assert f"{sg / name}: user {user} lists item {item} twice" in caplog.text

    @pytest.mark.parametrize("part,command", [("validation", "train"), ("test", "evaluate")])
    def test_pair_in_fold_in_and_target(self, tmp_path, raw_file, caplog, part, command):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        pair = (sg / f"{part}_target.csv").read_text().splitlines()[0]
        with open(sg / f"{part}_fold_in.csv", "a", encoding="utf-8") as fh:
            fh.write(pair + "\n")
        rc = main(self._argv(command, sg, "strong-gen", tmp_path))
        assert rc == 2
        user, item = pair.split(",")
        assert (f"{part}_fold_in.csv and {part}_target.csv: user {user} lists item {item} "
                "twice") in caplog.text

    @pytest.mark.parametrize("protocol,name,command", [
        ("loo", "train.csv", "train"),
        ("loo", "test_holdout.csv", "evaluate"),
        ("strong-gen", "train.csv", "train"),
        ("strong-gen", "test_fold_in.csv", "evaluate"),
        ("strong-gen", "test_target.csv", "evaluate"),
        ("strong-gen", "validation_fold_in.csv", "train"),
        ("strong-gen", "validation_target.csv", "train"),
    ])
    @pytest.mark.parametrize("edit", ["extra", "missing"])
    def test_pair_file_row_needs_two_fields(self, tmp_path, raw_file, caplog,
                                            protocol, name, command, edit):
        split_dir = (make_loo_dir if protocol == "loo" else make_strong_gen_dir)(
            tmp_path, raw_file)
        lines = (split_dir / name).read_text().splitlines()
        user, item = lines[1].split(",")
        lines[1] = f"{user},{item},7" if edit == "extra" else user
        (split_dir / name).write_text("\n".join(lines) + "\n")
        rc = main(self._argv(command, split_dir, protocol, tmp_path))
        assert rc == 2
        fields = 3 if edit == "extra" else 1
        assert f"{name} line 2: expected 2 fields, got {fields}" in caplog.text

    @pytest.mark.parametrize("row,reason", [
        ("5,1,2", "line 3: expected 5 fields, got 3"),
        ("5", "line 1: expected at least 2 fields, got 1"),
    ])
    def test_negatives_rows_share_one_width(self, tmp_path, raw_file, caplog, row, reason):
        loo = make_loo_dir(tmp_path, raw_file)
        lines = (loo / "test_negatives.csv").read_text().splitlines()
        if row == "5":
            lines = [row] * len(lines)
        else:
            lines[2] = row
        (loo / "test_negatives.csv").write_text("\n".join(lines) + "\n")
        rc = main(self._argv("evaluate", loo, "loo", tmp_path))
        assert rc == 2
        assert f"test_negatives.csv {reason}" in caplog.text

    def test_overflowing_id_names_its_line(self, tmp_path, raw_file, capsys, caplog):
        loo = make_loo_dir(tmp_path, raw_file)
        lines = (loo / "train.csv").read_text().splitlines()
        lines[2] = "99999999999999999999,0"
        (loo / "train.csv").write_text("\n".join(lines) + "\n")
        rc = main(self._argv("train", loo, "loo", tmp_path))
        assert rc == 2
        assert f"{loo / 'train.csv'} line 3: id too large" in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    @pytest.mark.parametrize("protocol", ["loo", "strong-gen"])
    def test_whitespace_only_lines_are_skipped(self, tmp_path, raw_file, capsys, protocol):
        clean = (make_loo_dir if protocol == "loo" else make_strong_gen_dir)(
            tmp_path, raw_file)
        padded = tmp_path / "padded"
        shutil.copytree(clean, padded)
        for path in padded.glob("*.csv"):
            lines = path.read_text().splitlines()
            lines[1:1] = ["  "]
            lines.insert(len(lines) // 2, " \t ")
            path.write_text("\n".join(lines + ["\t"]) + "\n")
        printed, models = [], []
        for split_dir in (clean, padded):
            run = tmp_path / f"run-{split_dir.name}"
            models.append(run / "model-seed1.bin")
            assert main(["train", "--split-dir", str(split_dir), "--protocol", protocol,
                         "--out", str(run), *TRAIN_FLAGS]) == 0
            capsys.readouterr()
            hp = TRAIN_FLAGS[2:6] if protocol == "strong-gen" else []
            assert main(["evaluate", "--split-dir", str(split_dir), "--protocol", protocol,
                         "--model", str(models[-1]), *hp]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert models[0].read_bytes() == models[1].read_bytes()

    @staticmethod
    def _argv(command, split_dir, protocol, tmp_path):
        argv = [command, "--split-dir", str(split_dir), "--protocol", protocol]
        if command == "train":
            return argv + ["--out", str(tmp_path / "run"), *TRAIN_FLAGS]
        hp = TRAIN_FLAGS[2:6] if protocol == "strong-gen" else []
        return argv + ["--model", str(tmp_path / "model.bin"), *hp]


def _corrupt(text: str, kind: str, row: int) -> str:
    """One corruption of a split file's text at a data row (0-based)."""
    lines = text.splitlines()
    if kind == "empty" or not lines:
        return ""
    row %= len(lines)
    fields = lines[row].split(",")
    if kind == "drop_field":
        lines[row] = ",".join(fields[:-1])
    elif kind == "add_field":
        lines[row] = ",".join(fields + ["3"])
    elif kind == "token":
        lines[row] = ",".join(fields[:-1] + ["x1"])
    elif kind == "negative":
        lines[row] = ",".join(fields[:-1] + ["-" + fields[-1]])
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    elif kind == "header":
        lines.insert(row, "user,item")
    return "\n".join(lines) + "\n"


CORRUPTIONS = ["drop_field", "add_field", "token", "negative", "duplicate", "empty", "header",
               "removed"]


@pytest.fixture(scope="module")
def trained_splits(tmp_path_factory):
    """A loo and a strong-gen split dir of the same raw file, each with a model."""
    base = tmp_path_factory.mktemp("fuzz")
    raw = write_raw(base / "raw.csv", np.random.default_rng(5))
    out = {}
    for protocol, make in (("loo", make_loo_dir), ("strong-gen", make_strong_gen_dir)):
        root = base / protocol
        root.mkdir()
        split_dir = make(root, raw)
        assert main(["train", "--split-dir", str(split_dir), "--protocol", protocol,
                     "--out", str(root / "run"), *TRAIN_FLAGS]) == 0
        out[protocol] = (split_dir, root / "run" / "model-seed1.bin")
    return out


class TestSplitDirFuzz:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(protocol=st.sampled_from(["loo", "strong-gen"]), data=st.data(),
           kind=st.sampled_from(CORRUPTIONS), row=st.integers(0, 400))
    def test_corrupt_file_exits_0_or_2(self, trained_splits, capsys, protocol, data,
                                       kind, row):
        split_dir, model = trained_splits[protocol]
        files = LOO_FILES if protocol == "loo" else STRONG_GEN_FILES
        name = data.draw(st.sampled_from(files))
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp) / "split"
            shutil.copytree(split_dir, work)
            if kind == "removed":
                (work / name).unlink()
            else:
                (work / name).write_text(_corrupt((work / name).read_text(), kind, row))
            hp = TRAIN_FLAGS[2:6] if protocol == "strong-gen" else []
            codes = [
                main(["train", "--split-dir", str(work), "--protocol", protocol,
                      "--out", str(Path(tmp) / "run"), *TRAIN_FLAGS]),
                main(["evaluate", "--split-dir", str(work), "--protocol", protocol,
                      "--model", str(model), *hp]),
            ]
        assert set(codes) <= {0, 2}, (name, kind, codes)
        assert "Traceback" not in capsys.readouterr().err


def _bad_input(case: str, tmp_path, raw_file, trained_splits):
    """(argv, exit code, logged message) of one bad input, its files made."""
    loo, model = trained_splits["loo"]
    split = ["split", "--data", str(raw_file), "--out", str(tmp_path / "split")]
    train = ["train", "--split-dir", str(loo), "--protocol", "loo",
             "--out", str(tmp_path / "run"), *TRAIN_FLAGS]
    evaluate = ["evaluate", "--split-dir", str(loo), "--protocol", "loo"]
    if case == "--ndcg-ks 0":
        return [*train, "--ndcg-ks", "0"], 2, "k values must be positive integers, got '0'"
    if case == "--alpha0-grid ,":
        return (["sweep", "--split-dir", str(loo), "--protocol", "loo", "--alpha0-grid", ",",
                 *SWEEP_BASE], 2, "empty number list ','")
    if case == "--repeats 0":
        return [*train, "--repeats", "0"], 2, "--repeats must be >= 1"
    if case == "sweep without validation users":
        assert main([*split, "--protocol", "strong-gen", "--holdout-users", "4"]) == 0
        return (["sweep", "--split-dir", str(tmp_path / "split"), "--protocol", "strong-gen",
                 *SWEEP_BASE], 2, f"{tmp_path / 'split'} has no validation users to sweep on")
    if case == "unwritable --out":
        out = tmp_path / "missing" / "report.json"
        return [*evaluate, "--model", str(model), "--out", str(out)], 1, \
            f"No such file or directory: '{out}'"
    if case == "--columns rating,time":
        return ([*split, "--protocol", "loo", "--columns", "rating,time"], 2,
                "column list must include 'user' and 'item'")
    if case == "--columns user,item,user":
        return ([*split, "--protocol", "loo", "--columns", "user,item,user"], 2,
                "column names given more than once: ['user']")
    if case == "--min-rating nan":
        return ([*split, "--protocol", "loo", "--min-rating", "nan"], 2,
                "min_rating must not be NaN")
    if case == "--min-rating without rating":
        return ([*split, "--protocol", "loo", "--columns", "user,item", "--min-rating", "3"], 2,
                "min_rating needs a rating column, got columns 'user,item'")
    if case == "--delimiter ''":
        return ([*split, "--protocol", "loo", "--delimiter", ""], 2,
                "delimiter must be non-empty and on one line, got ''")
    if case == "--holdout-users 0":
        return ([*split, "--protocol", "strong-gen", "--holdout-users", "0"], 2,
                "n_holdout_users must be >= 1")
    if case == "--sigma-star -1":
        return [*train, "--sigma-star", "-1"], 2, "sigma_star must be >= 0"
    path = tmp_path / "model.bin"
    if case in ("model shape x", "model shape 0"):
        header = "ials-model v1 x 12 3" if case == "model shape x" else "ials-model v1 0 12 3"
        path.write_bytes(header.encode() + b"\n" + bytes(12 * 3 * 8))
        reason = "malformed header" if case == "model shape x" else "non-positive shape in header"
        return [*evaluate, "--model", str(path)], 2, f"{path}: {reason} '{header}'"
    assert case == "loo users beyond the model's"
    trained = load_model(model)
    save_model(path, FactorModel(trained.user_factors[:2], trained.item_factors))
    return ([*evaluate, "--model", str(path)], 2,
            f"split references user {trained.num_users - 1} but model has 2 users")


class TestBadInput:
    @pytest.mark.parametrize("case", [
        "--ndcg-ks 0", "--alpha0-grid ,", "--repeats 0", "sweep without validation users",
        "unwritable --out", "--columns rating,time", "--columns user,item,user",
        "--min-rating nan", "--min-rating without rating", "--delimiter ''", "--holdout-users 0",
        "--sigma-star -1", "model shape x", "model shape 0", "loo users beyond the model's",
    ])
    def test_exit_code_and_message(self, tmp_path, raw_file, trained_splits, capsys, caplog,
                                   case):
        argv, code, message = _bad_input(case, tmp_path, raw_file, trained_splits)
        caplog.clear()
        assert main(argv) == code
        assert message in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text


class TestDefaultsAgree:
    """Each CLI default that a library call also states equals the library's."""

    @staticmethod
    def defaults(fn) -> dict:
        return {name: p.default for name, p in inspect.signature(fn).parameters.items()}

    def test_split_flags(self):
        ns = cli.make_parser().parse_args(["split"])
        load = self.defaults(ds.load_interactions)
        strong = self.defaults(ds.strong_generalization_split)
        loo = self.defaults(ds.leave_one_out_split)
        assert ns.columns == load["columns"]
        assert ns.fold_in_fraction == strong["fold_in_fraction"]
        assert ns.min_user_interactions == strong["min_user_interactions"]
        assert ns.negatives == loo["n_negatives"]
        assert ns.allow_seen_negatives == loo["allow_seen_negatives"]
        assert ns.seed == strong["seed"] == loo["seed"]

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    def test_metric_ks(self, command):
        sampled = self.defaults(mt.evaluate_sampled)
        strong = self.defaults(mt.evaluate_strong_generalization)
        parse = cli.make_parser().parse_args
        loo, sg = (parse([command, "--protocol", protocol]) for protocol in ("loo", "strong-gen"))
        assert sg.recall_ks == strong["recall_ks"]
        assert cli._ndcg_ks(loo) == sampled["ks"]
        assert cli._ndcg_ks(sg) == strong["ndcg_ks"]


SWEEP_BASE = ["--dim", "2", "--iterations", "2", "--seed", "1",
              "--recall-ks", "3", "--ndcg-ks", "4"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSweepCommand:
    def test_strong_gen_grid(self, tmp_path, raw_file, capsys):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        rc = main(["sweep", "--split-dir", str(sg), "--protocol", "strong-gen",
                   "--out", str(out), "--alpha0-grid", "0.1,0.3",
                   "--lambda-grid", "0.02,0.05", *SWEEP_BASE])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        assert set(rows[0]) == {"alpha0", "lambda", "status", "recall@3", "ndcg@4"}
        best_line = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("best:")]
        assert len(best_line) == 1
        best_val = max(float(r["ndcg@4"]) for r in rows)
        assert f"ndcg@4={best_val:.4f}" in best_line[0]

    def test_loo_grid_uses_inner_split(self, tmp_path, raw_file, capsys):
        loo = make_loo_dir(tmp_path, raw_file)
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        rc = main(["sweep", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(out), "--alpha0-grid", "0.1",
                   "--lambda-grid", "0.02,0.05", "--dim", "2",
                   "--iterations", "2", "--ndcg-ks", "4"])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert "hr@4" in rows[0] and "ndcg@4" in rows[0]
        assert "best:" in capsys.readouterr().out

    def test_loo_grid_skips_users_too_sparse_for_inner_split(self, tmp_path, raw_file,
                                                             caplog):
        # two raw interactions: one is the outer holdout, one stays in train
        with open(raw_file, "a", encoding="utf-8") as fh:
            fh.write("sparse,item0,5.0,90000\nsparse,item1,4.0,90001\n")
        loo = make_loo_dir(tmp_path, raw_file)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(out), "--alpha0-grid", "0.1",
                   "--lambda-grid", "0.02", "--dim", "2",
                   "--iterations", "2", "--ndcg-ks", "4"])
        assert rc == 0
        assert [r["status"] for r in read_csv(out)] == ["ok"]
        assert "skips 1 user" in caplog.text

    def test_loo_without_inner_validation_users_exits_2(self, tmp_path, rng, monkeypatch,
                                                        caplog):
        # two interactions per user: the outer holdout leaves each one
        # training interaction, too few for the inner split
        raw = write_raw(tmp_path / "raw.csv", rng, n_users=40, min_deg=2, max_deg=2)
        loo = make_loo_dir(tmp_path, raw)
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args, **kw: trained.append(args))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(out), "--alpha0-grid", "0.1", "--lambda-grid", "0.02",
                   *SWEEP_BASE])
        assert rc == 2
        assert trained == []
        assert not out.exists()
        assert f"{loo} has no validation users to sweep on" in caplog.text

    def test_normalized_grid_column_name(self, tmp_path, raw_file):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--split-dir", str(sg), "--protocol", "strong-gen",
                   "--out", str(out), "--alpha0-grid", "0.1",
                   "--lambda-star-grid", "0.02", *SWEEP_BASE])
        assert rc == 0
        assert "lambda_star" in read_csv(out)[0]

    def test_both_grids_rejected(self, tmp_path, raw_file):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        rc = main(["sweep", "--split-dir", str(sg), "--protocol", "strong-gen",
                   "--lambda-grid", "0.02", "--lambda-star-grid", "0.01",
                   *SWEEP_BASE])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--alpha0", "1"],
        ["sweep", "--lambda", "1"],
        ["sweep", "--lambda-star", "1"],
        ["evaluate", "--sigma-star", "0.1"],
    ])
    def test_ignored_knobs_are_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_unknown_selection_metric(self, tmp_path, raw_file, monkeypatch, caplog):
        # the metric name is checked before the first grid point trains
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args, **kw: trained.append(args))
        for protocol, split, names in (
                ("strong-gen", make_strong_gen_dir(tmp_path, raw_file),
                 ["recall@3", "ndcg@4"]),
                ("loo", make_loo_dir(tmp_path, raw_file), ["hr@4", "ndcg@4"])):
            rc = main(["sweep", "--split-dir", str(split), "--protocol", protocol,
                       "--out", str(tmp_path / "s.csv"), "--alpha0-grid", "0.1",
                       "--lambda-grid", "0.02", "--metric", "auc@5", *SWEEP_BASE])
            assert rc == 2
            assert f"selection metric 'auc@5' not among {names}" in caplog.text
        assert trained == []
        assert not (tmp_path / "s.csv").exists()

    def test_failing_point_recorded_and_skipped(self, tmp_path, raw_file,
                                                monkeypatch):
        sg = make_strong_gen_dir(tmp_path, raw_file)
        real_train = cli.train

        def fake_train(data, hp, **kw):
            if hp.lambda_ == 0.05:
                raise IalsError("boom")
            return real_train(data, hp, **kw)

        monkeypatch.setattr(cli, "train", fake_train)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--split-dir", str(sg), "--protocol", "strong-gen",
                   "--out", str(out), "--alpha0-grid", "0.1",
                   "--lambda-grid", "0.02,0.05", *SWEEP_BASE])
        assert rc == 0
        rows = read_csv(out)
        assert [r["status"] for r in rows] == ["ok", "error: boom"]

    @pytest.mark.parametrize("protocol, alpha0_grid, lambda_grid", [
        ("loo", "0.1,-1", "0.02"),
        ("strong-gen", "0.1", "0.02,-0.05"),
    ])
    def test_bad_grid_point_fails_before_training(self, tmp_path, raw_file, monkeypatch,
                                                  caplog, protocol, alpha0_grid,
                                                  lambda_grid):
        split = (make_loo_dir if protocol == "loo" else make_strong_gen_dir)(
            tmp_path, raw_file)
        trained, real_train = [], cli.train
        monkeypatch.setattr(cli, "train",
                            lambda *args, **kw: trained.append(args) or real_train(*args, **kw))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--split-dir", str(split), "--protocol", protocol,
                   "--out", str(out), "--alpha0-grid", alpha0_grid,
                   "--lambda-grid", lambda_grid, *SWEEP_BASE])
        assert rc == 2
        assert trained == []
        assert not out.exists()
        assert "must be >= 0" in caplog.text

    def test_all_points_failing_is_runtime_error(self, tmp_path, raw_file,
                                                 monkeypatch):
        sg = make_strong_gen_dir(tmp_path, raw_file)

        def always_fail(data, hp, **kw):
            raise IalsError("boom")

        monkeypatch.setattr(cli, "train", always_fail)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--split-dir", str(sg), "--protocol", "strong-gen",
                   "--out", str(out), "--alpha0-grid", "0.1",
                   "--lambda-grid", "0.02", *SWEEP_BASE])
        assert rc == 1
        assert all(r["status"].startswith("error:") for r in read_csv(out))

    def test_unwritable_out_fails_before_training(self, tmp_path, raw_file, monkeypatch,
                                                  caplog):
        loo = make_loo_dir(tmp_path, raw_file)
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args, **kw: trained.append(args))
        rc = main(["sweep", "--split-dir", str(loo), "--protocol", "loo",
                   "--out", str(tmp_path / "nodir" / "sweep.csv"), "--alpha0-grid", "0.1",
                   "--lambda-grid", "0.02,0.05", *SWEEP_BASE])
        assert rc == 1
        assert trained == []
        assert "No such file or directory" in caplog.text


def _option_names(command: str) -> list[str]:
    """Every option of a subcommand, as its dest and as its flag name."""
    sub = cli.make_parser()._subparsers._group_actions[0].choices[command]
    names = set()
    for a in sub._actions:
        if a.option_strings and a.dest not in ("help", "config"):
            names |= {a.dest, a.option_strings[0].lstrip("-")}
    return sorted(names)


JUNK_KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_-", min_size=1, max_size=8)
# Numbers stay small so that no drawn dim, iteration or repeat count makes
# a run slow; text has no digits for the same reason.  Zero is left out: a
# zero L2 weight beside a zero alpha0 or init scale is an unsolvable system,
# which exits 1 by design (test_unsolvable_system_is_runtime_error).
CONFIG_VALUES = st.one_of(
    st.sampled_from(["-2", "-1", "1", "2", "3", "6"]),
    st.sampled_from(["0.05", "0.5", "-1.0", "1e-3", "nan", "inf", "", "true", "off",
                     "exact", "block", "loo", "strong-gen", "test", "validation",
                     "1,2", "0.1,0.3", "3,x"]),
    st.text(alphabet="abcxyz-_ ,.", max_size=6),
)
# A working config of each command; the fuzz test overrides or adds keys.
CONFIG_BASE = {
    "split": {"holdout_users": "3", "validation_users": "2", "negatives": "4"},
    "train": {"dim": "3", "alpha0": "0.2", "lambda": "0.02", "iterations": "2"},
    "evaluate": {"alpha0": "0.2", "lambda": "0.02"},
    "sweep": {"dim": "2", "iterations": "1", "alpha0_grid": "0.1", "lambda_grid": "0.02",
              "ndcg_ks": "4", "recall_ks": "3"},
}


class TestConfigFuzz:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(CONFIG_BASE)),
           protocol=st.sampled_from(["loo", "strong-gen"]), data=st.data())
    def test_random_config_exits_0_or_2(self, trained_splits, capsys, command,
                                        protocol, data):
        names = st.sampled_from(_option_names(command))
        extra = data.draw(st.dictionaries(st.one_of(names, names, JUNK_KEYS),
                                          CONFIG_VALUES, max_size=2))
        split_dir, model = trained_splits[protocol]
        config = {"protocol": protocol, **CONFIG_BASE[command], **extra}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
            argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
            if command == "split":
                argv += ["--data", str(split_dir.parent.parent / "raw.csv")]
            else:
                argv += ["--split-dir", str(split_dir)]
            if command == "evaluate":
                argv += ["--model", str(model)]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2), (argv, config)
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("module", ["ials", "ials.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    done = run_python(module, "split", "--data", tmp_path / "missing.csv", "--protocol", "loo",
                      "--out", tmp_path / "x", flag="-m")
    assert done.returncode == 2, done.stderr[-2000:]
    assert "cannot open" in done.stderr
