"""Steadiness report: run the benchmark over many seeds and summarize the spread.

    python3 perfbench/steady.py --workloads loo-ml1m-d64,strongen-d512-exact \
        --seeds 1-10 [--trace 1] [--out perfbench/baseline/NAME.json]

For every workload it runs perfbench/run.py once per seed, one run at a
time, and reports for each metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median.
An end-to-end metric is steady when its spread is below a third of its
bound in BENCHMARK.json (setup_s is exempt, as it is a median of its own).
With --trace 1 the runs are traced and the per-layer metrics summarized.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def by_command(runs) -> dict:
    """Median self seconds of each module within each command of the traced loops."""
    samples: dict = {}
    for report, _ in runs:
        for loop in report["loops"]:
            for cmd, modules in loop.get("module_self_by_command", {}).items():
                for module, s in modules.items():
                    samples.setdefault(cmd, {}).setdefault(module, []).append(s)
    return {cmd: {m: statistics.median(v) for m, v in mods.items()}
            for cmd, mods in samples.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", required=True, help="comma list of workload names")
    p.add_argument("--seeds", default="1-10", help="range 1-10 or comma list")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="write the summary JSON here")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "seeds": parse_seeds(args.seeds), "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            report, result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: "
                      f"{[l['failures'] for l in report['loops']]}", file=sys.stderr)
                return 1
            runs.append((report, result))
            print(f"{workload} seed {seed}: run {report['run_s']:.1f}s, "
                  f"{len(report['loops'])} loops", file=sys.stderr)
        metrics = {n: summarize([r["metrics"][n]["value"] for _, r in runs])
                   for n in runs[0][1]["metrics"]}
        summary["workloads"][workload] = {
            "metrics": metrics,
            "run_s": summarize([rep["run_s"] for rep, _ in runs]),
            "loops": [len(rep["loops"]) for rep, _ in runs],
            "shapes": [rep["shape"] for rep, _ in runs],
            "env": runs[0][0]["env"],
        }
        if args.trace:
            summary["workloads"][workload]["module_self_by_command"] = by_command(runs)
        for n, m in metrics.items():
            ok = args.trace or n == "setup_s" or (m["spread"] or 0.0) < bounds[n] / 3
            steady &= ok
            print(f"{workload:22s} {n:30s} median {m['median']:.6g} q1 {m['q1']:.6g} "
                  f"q3 {m['q3']:.6g} spread {m['spread'] if m['spread'] is None else round(m['spread'], 4)}"
                  f"{'' if args.trace else f' bound {bounds[n]}'} {'ok' if ok else 'WIDE'}")
    summary["steady"] = steady
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
