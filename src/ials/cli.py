"""Command line interface: split, train, evaluate, sweep.

Every option can also come from a flat key = value config file
(--config); explicit flags win over the file, the file wins over built-in
defaults.  Exit codes: 0 success, 2 usage or input errors (an input too
large to allocate included), 1 anything else that fails at runtime.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import metrics as mt
from .errors import IalsError, InputError
from .model import load_model, save_model
from .solver import SOLVER_KINDS, Hyperparameters, train

log = logging.getLogger("ials")

ALPHA0_GRID_DEFAULT = (1.0, 0.3, 0.1, 0.03, 0.01, 0.003)
LAMBDA_STAR_GRID_DEFAULT = (0.1, 0.03, 0.01, 0.003, 0.001, 0.0003)

# Help text of the flag of each Hyperparameters field (seed is a common
# flag); the dataclass default is appended.
HP_HELP = {
    "dim": "embedding dimension",
    "alpha0": "weight of the implicit all-pairs term",
    "lambda_": "L2 strength (direct mode)",
    "lambda_star": "L2 strength on the nu-star reference scale (normalized mode)",
    "nu": "frequency exponent in [0,1]",
    "nu_star": "reference exponent for --lambda-star",
    "iterations": "training iterations",
    "sigma_star": "init scale",
    "solver": "per-entity solver",
    "block_size": "block solver block size",
    "projection_repeats": "block passes per fold-in projection",
}
_FIELD_TYPES = {"int": int, "float": float, "float | None": float, "str": str}


def _flag(name: str) -> str:
    """Flag of an option name: lambda_ -> --lambda, block_size -> --block-size."""
    return "--" + name.rstrip("_").replace("_", "-")


# ---------------------------------------------------------------------------
# option parsing
# ---------------------------------------------------------------------------

def load_config_file(path) -> dict[str, str]:
    """Flat "key = value" lines; # starts a comment."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path} line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip().strip("\"'")
    return out


def _config_defaults(p: argparse.ArgumentParser, path) -> dict:
    """Config values of subcommand p, converted like its flags, keyed by dest.

    A key names an option the way its flag does, with dashes or
    underscores; switches take a boolean named after their dest
    (log_validation = false is --no-log-validation).
    """
    actions = {_flag(a.dest): a for a in p._actions
               if a.option_strings and a.dest not in ("help", "config")}
    out = {}
    for key, raw in load_config_file(path).items():
        action = actions.get(_flag(key))
        if action is None:
            raise InputError(f"{path}: unknown config key {key!r}")
        if action.nargs not in (None, 0):
            raise InputError(f"{path}: {key} takes several values; pass {_flag(key)}")
        try:
            value = _parse_bool(raw) if action.nargs == 0 else (action.type or str)(raw)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: config key {key}: bad value {raw!r}") from exc
        if action.choices is not None and value not in action.choices:
            raise InputError(f"{path}: config key {key}: {raw!r} is not one of "
                             f"{list(action.choices)}")
        out[action.dest] = value
    return out


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(dict.fromkeys(int(p) for p in str(text).split(",") if p.strip()))
    except ValueError as exc:
        raise InputError(f"bad k list {text!r}: {exc}") from exc
    if not ks or min(ks) < 1:
        raise InputError(f"k values must be positive integers, got {text!r}")
    return ks


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(p) for p in str(text).split(",") if p.strip())
    except ValueError as exc:
        raise InputError(f"bad number list {text!r}: {exc}") from exc
    if not vals:
        raise InputError(f"empty number list {text!r}")
    return vals


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InputError(f"bad boolean {text!r}")


def _require(ns: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(ns, name) is None:
            raise InputError(f"missing required option {_flag(name)}")


def _build_hp(ns: argparse.Namespace, **fixed) -> Hyperparameters:
    """Hyperparameters from fixed and the fields set on ns; the dataclass
    supplies every other default."""
    values = dict(fixed)
    for f in dataclasses.fields(Hyperparameters):
        value = values.get(f.name, getattr(ns, f.name, None))
        if value is not None:
            values[f.name] = value
        elif f.default is dataclasses.MISSING:
            raise InputError(f"missing required option {_flag(f.name)}")
    return Hyperparameters(**values)


def _ndcg_ks(ns: argparse.Namespace) -> tuple[int, ...]:
    """--ndcg-ks, defaulting by protocol; for loo it doubles as the HR list."""
    return ns.ndcg_ks or ((10,) if ns.protocol == "loo" else (100,))


def _load_split(ns: argparse.Namespace) -> tuple:
    """--split-dir under --protocol as (validation or None, test)."""
    if ns.protocol == "strong-gen":
        return ds.load_strong_generalization(ns.split_dir)
    return None, ds.load_leave_one_out(ns.split_dir)


def _score(ns: argparse.Namespace, model, split, hp: Hyperparameters | None = None,
           side=None) -> mt.MetricReport:
    """Score model on split under --protocol with the k flags.

    Strong-gen fold-in uses hp, by default the flags' with the model's dim, and side.
    """
    if ns.protocol == "loo":
        return mt.evaluate_sampled(model, split, ks=_ndcg_ks(ns))
    return mt.evaluate_strong_generalization(
        model, split, hp or _build_hp(ns, dim=model.dim),
        recall_ks=ns.recall_ks, ndcg_ks=_ndcg_ks(ns), side=side)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_split(ns: argparse.Namespace) -> int:
    _require(ns, "data", "out", "protocol")
    data = ds.load_interactions(ns.data, delimiter=ns.delimiter, columns=ns.columns,
                                min_rating=ns.min_rating)
    print(f"loaded: users={data.num_users} items={data.num_items} "
          f"interactions={data.num_pairs}")

    if ns.protocol == "strong-gen":
        _require(ns, "holdout_users")
        validation, test = ds.strong_generalization_split(
            data,
            n_holdout_users=ns.holdout_users,
            n_validation_users=ns.validation_users,
            fold_in_fraction=ns.fold_in_fraction,
            min_user_interactions=ns.min_user_interactions,
            seed=ns.seed,
        )
        ds.save_strong_generalization(ns.out, validation, test)
        print(f"train interactions={validation.train.num_pairs} "
              f"validation users={len(validation.users)} test users={len(test.users)}")
    else:
        split = ds.leave_one_out_split(data, n_negatives=ns.negatives, seed=ns.seed,
                                       allow_seen_negatives=ns.allow_seen_negatives)
        ds.save_leave_one_out(ns.out, split)
        print(f"train interactions={split.train.num_pairs} "
              f"holdout users={split.users.size} "
              f"negatives per user={split.negatives.shape[1]}")
    ds.write_id_maps(ns.out, data)
    print(f"split written to {ns.out}")
    return 0


def _train_one(train_data, hp: Hyperparameters, out_dir: Path, seed: int,
               eval_fn=None) -> Path:
    """Train one model for one seed; returns the model file path."""
    hp = dataclasses.replace(hp, seed=seed)
    log_path = out_dir / f"train-seed{seed}.jsonl"
    model_path = out_dir / f"model-seed{seed}.bin"
    started = time.perf_counter()

    with open(log_path, "w", encoding="utf-8") as log_file:
        def observer(iteration, report, metrics, phases):
            record = {
                "iteration": report.iteration,
                "L": report.L, "L_S": report.L_S, "L_I": report.L_I, "R": report.R,
                **phases,
            }
            if metrics is not None:
                record["validation"] = metrics.to_json_dict()
            log_file.write(json.dumps(record) + "\n")
            log_file.flush()
            extra = ""
            if metrics is not None:
                extra = " " + " ".join(f"{k}={v:.4f}" for k, v in metrics.means.items())
            log.info("seed %d iter %d/%d L=%.6g%s",
                     seed, iteration, hp.iterations, report.L, extra)

        model, _ = train(train_data, hp, observer=observer, eval_fn=eval_fn)

    save_model(model_path, model)
    log.info("seed %d done in %.1fs, model at %s",
             seed, time.perf_counter() - started, model_path)
    return model_path


def cmd_train(ns: argparse.Namespace) -> int:
    _require(ns, "split_dir", "protocol", "out")
    if ns.repeats < 1:
        raise InputError("--repeats must be >= 1")
    hp = _build_hp(ns)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    validation, test = _load_split(ns)
    eval_fn = None
    if ns.log_validation and validation is not None and validation.users.size:
        def eval_fn(model, side):
            return _score(ns, model, validation, hp, side)

    paths = [_train_one(test.train, hp, out_dir, hp.seed + r, eval_fn=eval_fn)
             for r in range(ns.repeats)]
    print("\n".join(str(p) for p in paths))
    return 0


def _aggregate(reports: list[mt.MetricReport]) -> dict:
    """Single report stays flat; several become mean + <name>_std fields."""
    if len(reports) == 1:
        return reports[0].to_json_dict()
    names = list(reports[0].means)
    out: dict = {}
    for name in names:
        vals = np.array([r.means[name] for r in reports])
        out[name] = float(vals.mean())
        out[name + "_std"] = float(vals.std(ddof=1))
    out["n_users"] = reports[0].n_users
    out["n_models"] = len(reports)
    return out


def cmd_evaluate(ns: argparse.Namespace) -> int:
    _require(ns, "split_dir", "protocol", "model")
    validation, split = _load_split(ns)
    if ns.part == "validation":
        if validation is None or not validation.users.size:
            raise InputError(f"{ns.split_dir} has no validation users")
        split = validation
    reports = [_score(ns, model, split) for model in map(load_model, ns.model)]
    text = json.dumps(_aggregate(reports), indent=2)
    print(text)
    if ns.out:
        Path(ns.out).write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    _require(ns, "split_dir", "protocol")
    if ns.lambda_grid is not None and ns.lambda_star_grid is not None:
        raise InputError("set only one of --lambda-grid / --lambda-star-grid")
    direct = ns.lambda_grid is not None
    reg_grid = (ns.lambda_grid if direct
                else ns.lambda_star_grid or LAMBDA_STAR_GRID_DEFAULT)
    reg_field = "lambda_" if direct else "lambda_star"
    reg_col = "lambda" if direct else "lambda_star"
    # every point is checked before the first one trains
    points = [(alpha0, reg, _build_hp(ns, alpha0=alpha0, **{reg_field: reg}))
              for alpha0 in ns.alpha0_grid for reg in reg_grid]
    # the names _score reports; by default HR (loo) or NDCG at the first k
    ks = _ndcg_ks(ns)
    loo = ns.protocol == "loo"
    names = mt.metric_names(ks, ks, "hr") if loo else mt.metric_names(ns.recall_ks, ks)
    metric = ns.metric or names[0 if loo else -len(ks)]
    if metric not in names:
        raise InputError(f"selection metric {metric!r} not among {names}")

    validation, test = _load_split(ns)
    if ns.protocol == "loo":
        # No validation artifacts exist under leave-one-out, so carve an
        # inner validation split out of the training interactions.
        validation = ds.leave_one_out_split(
            test.train, n_negatives=test.negatives.shape[1], seed=ns.seed,
            skip_sparse_users=True)
        skipped = test.train.num_users - validation.users.size
        if skipped:
            log.warning("inner validation split skips %d user(s) with fewer than "
                        "2 training interactions", skipped)
    if validation is None or not validation.users.size:
        raise InputError(f"{ns.split_dir} has no validation users to sweep on")

    best = None
    # the header goes out before the first point trains, so a bad --out
    # costs no training; each row follows when its point finishes
    with open(ns.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["alpha0", reg_col, "status"] + names)
        writer.writeheader()
        for alpha0, reg, hp in points:
            tag = f"alpha0={alpha0:g} {reg_col}={reg:g}"
            try:
                started = time.perf_counter()
                model, _ = train(validation.train, hp)
                report = _score(ns, model, validation, hp)
                elapsed = time.perf_counter() - started
            except IalsError as exc:
                log.warning("grid point %s failed: %s", tag, exc)
                writer.writerow({"alpha0": alpha0, reg_col: reg, "status": f"error: {exc}"})
                continue
            row = {"alpha0": alpha0, reg_col: reg, "status": "ok"}
            row.update({k: report.means[k] for k in names})
            writer.writerow(row)
            log.info("%s -> %s=%.4f (%.1fs)", tag, metric, report.means[metric], elapsed)
            if best is None or report.means[metric] > best[2]:
                best = (alpha0, reg, report.means[metric])
    print(f"sweep table written to {ns.out}")

    if best is None:
        log.error("every grid point failed")
        return 1
    print(f"best: alpha0={best[0]:g} {reg_col}={best[1]:g} {metric}={best[2]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_hp_flags(p: argparse.ArgumentParser, skip=()) -> None:
    """One flag per Hyperparameters field, named by _flag, dest the field name."""
    for f in dataclasses.fields(Hyperparameters):
        if f.name == "seed" or f.name in skip:
            continue
        shown = HP_HELP[f.name]
        if f.default not in (dataclasses.MISSING, None):
            shown += f" (default {f.default})"
        p.add_argument(_flag(f.name), dest=f.name, type=_FIELD_TYPES[f.type],
                       choices=SOLVER_KINDS if f.name == "solver" else None, help=shown)


def _add_eval_ks(p: argparse.ArgumentParser) -> None:
    p.add_argument("--recall-ks", type=_parse_ks, default=(20, 50),
                   help="comma list (default 20,50)")
    p.add_argument("--ndcg-ks", type=_parse_ks,
                   help="comma list (default 10 under loo, where it is also the HR "
                        "list, 100 under strong-gen)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ials",
        description="Implicit-feedback matrix factorization: split, train, "
                    "evaluate, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        # no prefix matching: sweep --alpha0 must not mean --alpha0-grid
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--config", help="flat key = value config file; flags override it")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
        p.add_argument("--protocol", choices=["strong-gen", "loo"])
        if name != "split":
            p.add_argument("--split-dir", help="split directory from the split subcommand")
        return p

    p = command("split", cmd_split, "materialize an evaluation split directory")
    p.add_argument("--data", help="raw interaction file (csv/tsv, optionally .gz)")
    p.add_argument("--out", help="split directory to write")
    p.add_argument("--delimiter", help="field separator (default: , or tab by extension)")
    p.add_argument("--columns", default="user,item,rating,time",
                   help="positional names (default %(default)s)")
    p.add_argument("--min-rating", type=float,
                   help="keep rows with rating >= this (default: keep all)")
    p.add_argument("--holdout-users", type=int, help="strong-gen: #test users")
    p.add_argument("--validation-users", type=int, default=0,
                   help="strong-gen: #validation users (default 0)")
    p.add_argument("--fold-in-fraction", type=float, default=0.8,
                   help="strong-gen: revealed fraction per eval user (default 0.8)")
    p.add_argument("--min-user-interactions", type=int, default=0,
                   help="strong-gen: eligibility threshold for eval users")
    p.add_argument("--negatives", type=int, default=100,
                   help="loo: sampled negatives (default 100)")
    p.add_argument("--allow-seen-negatives", action="store_true",
                   help="loo: sample negatives from all items except the holdout")

    p = command("train", cmd_train, "train and persist model(s) with a JSONL loss log")
    p.add_argument("--out", help="output directory for models and logs")
    _add_hp_flags(p)
    p.add_argument("--repeats", type=int, default=1,
                   help="train this many models with seeds seed..seed+n-1")
    _add_eval_ks(p)
    p.add_argument("--no-log-validation", action="store_false", dest="log_validation",
                   help="skip per-iteration validation metrics even if available")

    p = command("evaluate", cmd_evaluate, "evaluate saved model(s) on a split")
    p.add_argument("--model", nargs="+", help="model file(s); several -> mean and std")
    p.add_argument("--part", choices=["validation", "test"], default="test",
                   help="strong-gen part to score (default test)")
    # fold-in reads the solver settings; dim comes from the model file
    _add_hp_flags(p, skip=("dim", "iterations", "sigma_star"))
    _add_eval_ks(p)
    p.add_argument("--out", help="also write the JSON report here")

    p = command("sweep", cmd_sweep, "grid-search alpha0 x lambda on validation data")
    p.add_argument("--out", default="sweep.csv", help="CSV output path (default sweep.csv)")
    _add_hp_flags(p, skip=("alpha0", "lambda_", "lambda_star"))
    p.add_argument("--alpha0-grid", type=_parse_floats, default=ALPHA0_GRID_DEFAULT,
                   help="comma list of alpha0 values")
    p.add_argument("--lambda-grid", type=_parse_floats, help="comma list (direct mode)")
    p.add_argument("--lambda-star-grid", type=_parse_floats,
                   help="comma list (normalized mode; the default grid)")
    p.add_argument("--metric", help="selection metric name (default ndcg@100 / hr@10)")
    _add_eval_ks(p)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
                        datefmt="%H:%M:%S")
    parser = make_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            ns.parser.set_defaults(**_config_defaults(ns.parser, ns.config))
            ns = parser.parse_args(argv)
        if ns.seed < 0:
            raise InputError(f"--seed must be >= 0, got {ns.seed}")
        return ns.func(ns)
    except (InputError, MemoryError) as exc:   # MemoryError: a size too large to allocate
        log.error("%s", exc)
        return 2
    except (IalsError, OSError) as exc:
        log.error("%s", exc)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
