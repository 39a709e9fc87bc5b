"""One loop of a workload in a fresh process: ials split, train, evaluate.

Run by perfbench/run.py, once per loop, as

    python3 perfbench/worker.py --workload NAME --seed N --data CSV \
        --loop-dir DIR --spawn T [--trace] [--probe]

where T is the CLOCK_MONOTONIC time at which the parent started this
process, so setup_s covers interpreter start and `import ials` (numpy,
scipy and both OpenBLAS libraries) up to the first command.  The loop
calls ials.cli.main(argv) for each command, as a user's shell would run
the `ials` entry point, then checks the outputs and writes result.json
into DIR.  A probe (--probe) runs only the first command, split: it adds
set-up and split samples taken later in the run than the first loop.
Nothing here sets BLAS thread counts.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402  (paths above)
from spans import MODULES, Tracer, layer_metrics, module_self_by_root  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

COMMANDS = ("split", "train", "evaluate")
MIN_COMMAND_S = 2.0
MAX_REPEATS = 15


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def command_lines(w: Workload, seed: int, data: Path, loop_dir: Path) -> dict:
    split_dir, out = loop_dir / "split", loop_dir / "out"
    common = ["--split-dir", str(split_dir), "--protocol", w.protocol]
    ks = []
    if w.recall_ks:
        ks += ["--recall-ks", ",".join(map(str, w.recall_ks))]
    ks += ["--ndcg-ks", ",".join(map(str, w.ndcg_ks))]
    evaluate = ["evaluate", *common, "--model", str(out / f"model-seed{seed}.bin"),
                "--out", str(out / "evaluate.json"), *w.eval_flags, *ks]
    if w.protocol == "strong-gen":
        evaluate += w.hp_flags(with_dim=False)
    return {
        "split": ["split", "--data", str(data), "--protocol", w.protocol,
                  "--out", str(split_dir), "--seed", str(seed), *w.split_flags],
        "train": ["train", *common, "--out", str(out), "--seed", str(seed),
                  "--iterations", str(w.iterations), *w.hp_flags(), *ks],
        "evaluate": evaluate,
    }


def run_commands(argvs: dict, tracer=None, commands=COMMANDS) -> tuple[dict, dict, float]:
    """Run the commands in order; stop at the first that fails.

    Untraced, a cheap command (split or evaluate) is repeated until it has
    taken MIN_COMMAND_S in all, and its median counts: on the strong-gen
    workloads `ials split` takes about 0.1 s, too short to time once on a
    shared machine.  The heavy command, train, runs once.  Traced, every
    command runs once, so spans cover exactly one loop.

    Returns (exit codes, seconds per command, loop seconds).
    """
    from ials import cli

    codes, seconds = {}, {}
    loop_start = time.perf_counter()
    for cmd in commands:
        main = cli.main if tracer is None else tracer.span(f"cli.{cmd}", cli.main)
        samples = []
        while True:
            start = time.perf_counter()
            try:
                codes[cmd] = main(argvs[cmd])
            except Exception:  # a traceback is a failed command, not a harness crash
                traceback.print_exc()
                codes[cmd] = 1
            samples.append(time.perf_counter() - start)
            if (codes[cmd] != 0 or tracer is not None or cmd == "train"
                    or sum(samples) >= MIN_COMMAND_S or len(samples) >= MAX_REPEATS):
                break
        seconds[cmd] = statistics.median(samples)
        if codes[cmd] != 0:
            break
    loop_s = time.perf_counter() - loop_start if tracer is not None else sum(seconds.values())
    return codes, seconds, loop_s


def quality(w: Workload, cli_json: dict, per_user: dict | None) -> dict:
    """The four quality metrics, defined on both protocols."""
    if w.protocol == "loo":
        return {"hr_at_10": cli_json["hr@10"], "ndcg_at_10": cli_json["ndcg@10"],
                "recall_at_20": cli_json["hr@20"], "ndcg_at_100": cli_json["ndcg@100"]}
    # A user has a hit in the top 10 exactly when their recall@10 is positive.
    return {"hr_at_10": float((per_user["recall@10"] > 0).mean()),
            "ndcg_at_10": cli_json["ndcg@10"], "recall_at_20": cli_json["recall@20"],
            "ndcg_at_100": cli_json["ndcg@100"]}


def check_outputs(w: Workload, seed: int, loop_dir: Path, codes: dict) -> tuple[list, dict]:
    """Run every output check; returns (failure messages, quality values)."""
    from ials import IalsError, dataset, metrics
    from ials.model import load_model
    from ials.solver import Hyperparameters

    failures, values = [], {}
    out = loop_dir / "out"
    try:
        checks.exit_codes(codes)
        losses = checks.jsonl_losses(out / f"train-seed{seed}.jsonl", w.iterations)
        model = load_model(out / f"model-seed{seed}.bin")
        checks.model_finite(model)
        cli_json = json.loads((out / "evaluate.json").read_text(encoding="utf-8"))
        if w.protocol == "loo":
            split = dataset.load_leave_one_out(loop_dir / "split")
            report = metrics.evaluate_sampled(model, split, ks=w.ndcg_ks)
        else:
            _, split = dataset.load_strong_generalization(loop_dir / "split")
            hp = Hyperparameters(iterations=0, **w.hp)
            report = metrics.evaluate_strong_generalization(
                model, split, hp, recall_ks=w.recall_ks, ndcg_ks=w.ndcg_ks,
                keep_per_user=True)
        checks.same_report(cli_json, report.to_json_dict())
        values = {"final_loss": losses[-1], **quality(w, cli_json, report.per_user)}
        checks.in_band(values, w.band)
    except (checks.CheckFailed, IalsError, OSError, ValueError, KeyError) as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    return failures, values


def run_loop(w: Workload, seed: int, data: Path, loop_dir: Path, traced: bool) -> dict:
    """One timed loop plus its checks; the result is JSON-serializable."""
    argvs = command_lines(w, seed, data, loop_dir)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        codes, seconds, loop_s = run_commands(argvs, tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "codes": codes,
        "loop_s": loop_s,
        **{f"{cmd}_s": s for cmd, s in seconds.items()},
        "peak_rss_mb": peak_rss_mb,
    }
    failures, values = check_outputs(w, seed, loop_dir, codes)
    result.update(values)
    if tracer is not None:
        layers = layer_metrics(tracer.spans, tracer.counts, loop_s)
        split_dir = loop_dir / "split"
        layers["dataset.split_bytes"] = sum(
            p.stat().st_size for p in split_dir.iterdir()) if split_dir.is_dir() else 0
        accounted = sum(layers[f"{m}.self_s"] for m in MODULES) + layers["trace.uncovered_s"]
        if not math.isclose(accounted, loop_s, rel_tol=1e-9, abs_tol=1e-9):
            failures.append(f"module self times + uncovered = {accounted} != loop_s {loop_s}")
        result["layers"] = layers
        result["module_self_by_command"] = module_self_by_root(tracer.spans)
    result["failures"] = failures
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--loop-dir", type=Path, required=True)
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    import ials.cli  # noqa: F401  numpy, scipy and BLAS load here
    setup_s = monotonic() - args.spawn

    result = {"setup_s": setup_s}
    w = WORKLOADS[args.workload]
    if args.probe:
        argvs = command_lines(w, args.seed, args.data, args.loop_dir)
        codes, seconds, _ = run_commands(argvs, commands=("split",))
        result.update(codes=codes, split_s=seconds["split"])
    else:
        import envinfo
        result.update(run_loop(w, args.seed, args.data, args.loop_dir, args.trace))
        result["env"] = envinfo.collect(ROOT)
    args.loop_dir.mkdir(parents=True, exist_ok=True)
    (args.loop_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
