"""Run one workload over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload desk --seeds 1-10 [--trace 0] [--out FILE]

Runs ``perfbench/run.py`` once per seed, one after another, with the
``run_seconds`` of ``BENCHMARK.json``. For every metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound. ``--out`` writes the
per-seed results (with each run's record) and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        argv = [
            sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"], result["exit_code"] = seed, proc.returncode
        if len(lines) > 1 and lines[-2].startswith('{"record"'):
            result["record"] = json.loads(lines[-2])["record"]
        runs.append(result)
        print(f"seed {seed}: exit {proc.returncode}, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    summary = summarise(runs, bounds)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:<34} median {s['median']:>14.6g} {s['unit']:<8} spread {spread:>8}  bound {s['bound']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "trace": args.trace, "runs": runs, "summary": summary}, fh, indent=1)
    return 0 if all(run["correct"] and run["exit_code"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
