"""Smoke run: every workload at tiny size, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run exits, prints a result line with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and emits every
metric that ``BENCHMARK.json`` names (end-to-end untraced, per-layer traced)
and nothing else; ``run.py`` takes each unit from ``BENCHMARK.json``. Exits 1
on any mismatch.
Output checks may fail at tiny size (the criterion 6 gate needs the desk
scale), so ``correct`` is reported, not required.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [
                sys.executable, *spec["command"][1:],
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny",
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            got = set(result["metrics"])
            for name in sorted(expected[trace] - got):
                problems.append(f"{label}: missing metric {name}")
            for name in sorted(got - expected[trace]):
                problems.append(f"{label}: metric {name} not in BENCHMARK.json")
            print(f"{label}: {len(got)} metrics, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}")
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
