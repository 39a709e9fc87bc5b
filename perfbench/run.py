"""Benchmark of the ials loop: split -> train -> evaluate on seeded synthetic data.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
src/).  The harness generates the workload's raw CSV from the seed, then
runs closed loops: each loop is one fresh worker process that runs
`ials split`, `ials train` and `ials evaluate` through ials.cli.main and
checks their outputs.  Loops repeat until the next one would end past
S seconds (at least one; with --trace 1 at least one untraced and one
traced, alternating).  Set-up time is sampled from every loop and from
probe processes that import ials and run split, and reported as a
median; split time is the median over the loops and the probes.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The line before it
holds the full report: generated shape, per-loop values, check failures
and the environment record.  The harness never sets BLAS thread counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402  (path above)
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
# Medians over the untraced loops of a run.  split_s and evaluate_s are
# per-layer metrics: the traced run reports them from its untraced loops.
PLAIN_METRICS = ("loop_s", "split_s", "train_s", "evaluate_s", "peak_rss_mb",
                 "final_loss", "hr_at_10", "ndcg_at_10", "recall_at_20", "ndcg_at_100")
# Every run must end within 180 s; no loop starts that would end past this.
RUN_LIMIT_S = 160.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn_worker(argv: list[str], loop_dir: Path, deadline: float) -> dict | None:
    """Run one worker process to completion; None when it crashed or timed out."""
    loop_dir.mkdir(parents=True)
    with open(loop_dir / "stdout.txt", "wb") as out, open(loop_dir / "stderr.txt", "wb") as err:
        spawn = monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv, "--loop-dir", str(loop_dir),
             "--spawn", repr(spawn)],
            cwd=ROOT, stdout=out, stderr=err)
        try:
            proc.wait(timeout=max(1.0, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None
    result = loop_dir / "result.json"
    if proc.returncode != 0 or not result.is_file():
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def median_of(loops: list[dict], key: str) -> float | None:
    values = [r[key] for r in loops if key in r]
    return statistics.median(values) if values else None


def run(args, spec: dict, work: Path) -> dict:
    w = WORKLOADS[args.workload]
    started = monotonic()
    deadline = started + RUN_LIMIT_S

    gen_start = time.perf_counter()
    data = work / "data.csv"
    arrays = gen.generate(w.shape, args.seed)
    data.write_bytes(gen.to_csv(*arrays))
    shape = gen.realized_shape(arrays[0], arrays[1], w.shape.users, w.shape.items)
    gen_s = time.perf_counter() - gen_start

    base = ["--workload", w.name, "--seed", str(args.seed), "--data", str(data)]
    loops, walls = [], []
    attempted = failed = 0
    loop_start = monotonic()
    while True:
        traced = bool(args.trace) and len(loops) % 2 == 1
        t0 = monotonic()
        r = spawn_worker(base + (["--trace"] if traced else []),
                         work / f"loop{len(loops)}", deadline)
        walls.append(monotonic() - t0)
        if r is None:
            attempted, failed = attempted + 1, failed + 1
            loops.append({"traced": traced, "failures": ["worker crashed or timed out"]})
            break
        r["traced"] = traced
        loops.append(r)
        # Each command is one operation and so is each loop's output check.
        attempted += len(r["codes"]) + 1
        failed += sum(rc != 0 for rc in r["codes"].values()) + bool(r["failures"])
        if r["failures"]:
            break
        next_end = monotonic() + statistics.median(walls)
        enough = not args.trace or len(loops) >= 2
        if next_end > deadline or (enough and next_end - loop_start > args.seconds):
            break

    # Probes are fresh processes that import ials and run split: they bring
    # set-up samples up to SETUP_SAMPLES, and split samples from later in
    # the run, where a run of one long loop has only one.
    setups = [r["setup_s"] for r in loops if "setup_s" in r]
    probe_splits = []
    while failed == 0 and len(setups) < SETUP_SAMPLES and monotonic() < deadline - 10:
        r = spawn_worker(base + ["--probe"], work / f"probe{len(setups)}", deadline)
        attempted += 1
        if r is None or r["codes"]["split"] != 0:
            failed += 1
            break
        setups.append(r["setup_s"])
        probe_splits.append(r["split_s"])

    plain = [r for r in loops if not r["traced"]]
    traced = [r for r in loops if r["traced"]]
    values = {n: median_of(plain, n) for n in PLAIN_METRICS}
    if setups:
        values["setup_s"] = statistics.median(setups)
    splits = [r["split_s"] for r in plain if "split_s" in r] + probe_splits
    if splits:
        values["split_s"] = statistics.median(splits)
    if args.trace:
        layers = [r["layers"] for r in traced if "layers" in r]
        if layers:
            values.update({n: statistics.median(l[n] for l in layers) for n in layers[0]})
        traced_loop = median_of(traced, "loop_s")
        if values["loop_s"] is not None and traced_loop is not None:
            values["trace.overhead_s"] = traced_loop - values["loop_s"]
        values["fail_rate"] = failed / attempted
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metrics_spec if values.get(m["name"]) is not None}

    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "generate_s": gen_s, "shape": shape, "setup_samples": setups,
        "probe_split_samples": probe_splits,
        "run_s": monotonic() - started,
        "env": next((r["env"] for r in loops if "env" in r), None),
        "loops": [{k: v for k, v in r.items() if k != "env"} for r in loops],
    }
    correct = failed == 0 and len(metrics) == len(metrics_spec)
    return {"report": report, "result": {
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ials" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not an ials source checkout (no src/ials or "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
