"""Outside-in benchmark of the coclick package.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 42 --seconds 30 --trace 0

It imports coclick from ``src/`` of the checkout it sits in and sets the
workload up ``SETUPS`` times (set-up time is their median). Each set-up
generates the inputs from ``--seed`` in a child process, so the generators do
not count in this process's peak RSS. The run then repeats the timed part
for ``--seconds``, at least ``MIN_ITERATIONS`` times, and reports the median
wall time over the iterations and each rate over all of them. ``--trace 1`` runs one traced iteration before the
untraced ones and reports the per-layer metrics instead of the end-to-end
ones. Every metric's unit is the one ``BENCHMARK.json`` gives it. Outputs are
checked; every failed check or operation counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result (with
the input hashes, the machine and every check) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json`` and the spans of a
traced run to ``...-spans.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3
MIN_ITERATIONS = 3


def metric_units() -> dict[str, str]:
    """Unit of every metric ``BENCHMARK.json`` names; exit 2 when it is not there."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: no {spec_path}", file=sys.stderr)
        sys.exit(2)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def import_coclick() -> None:
    """Import coclick from this checkout's ``src/``; exit 2 when it is not there."""
    package = ROOT / "src" / "coclick" / "__init__.py"
    if not package.is_file():
        print(f"error: no coclick package at {package.parent}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import coclick

    if Path(coclick.__file__).resolve() != package.resolve():
        print(f"error: imported coclick from {coclick.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process, in MB (the input generators run as children)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rate(samples: list[dict], work: str) -> float:
    """Work per second over all iterations: the summed ``work`` over the summed seconds spent on it.

    Pooling the iterations averages over the host's short phases of load,
    which a median of per-iteration rates does not.
    """
    return sum(s[work] for s in samples) / sum(s[f"{work}_s"] for s in samples)


def generate_inputs(workload: str, seed: int, size: str, directory: Path) -> dict:
    """Run ``inputs.py`` in a child process to write the inputs; returns its ``meta.json``."""
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), workload, str(seed), size, str(directory)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
    )
    return json.loads((directory / "meta.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0, help="how long the timed part repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke runs")
    args = parser.parse_args(argv)

    import_coclick()
    units = metric_units()
    sys.path.insert(0, str(HERE))
    import inputs
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops_attempted = ops_failed = 0
    checks: list = []
    record: dict = {"workload": args.workload, "seed": args.seed, "size": args.size, "machine": machine()}
    metrics: dict[str, float] = {}
    try:
        setup_times, input_hashes = [], []
        inputs_dir = workdir / "inputs"
        for _ in range(SETUPS):
            ops_attempted += 1
            started = time.perf_counter()
            meta = generate_inputs(args.workload, args.seed, args.size, inputs_dir)
            workload.setup(inputs_dir, meta)
            setup_times.append(time.perf_counter() - started)
            input_hashes.append({name: inputs.sha256_file(inputs_dir / name) for name in meta["files"]})
        record["input_sha256"] = input_hashes[0]
        checks.append(
            workloads.Check("setup.inputs_identical_across_setups", all(h == input_hashes[0] for h in input_hashes))
        )

        if args.trace:
            # The traced iteration runs first, so the layers' peak-RSS deltas
            # are not hidden by an earlier iteration's high-water mark.
            tracer = tracing.Tracer()
            ops_attempted += 1
            gc.collect()
            with tracing.installed(tracer):
                with tracer.span("bench.timed"):
                    traced = time.perf_counter()
                    workload.timed(workdir)
                    traced_wall_s = time.perf_counter() - traced
            tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")

        # Iterations repeat while the next one is expected to end within --seconds.
        samples = []
        started = time.perf_counter()
        while len(samples) < MIN_ITERATIONS or (
            time.perf_counter() - started + statistics.median(s["wall_s"] for s in samples) <= args.seconds
        ):
            ops_attempted += 1
            gc.collect()
            samples.append(workload.timed(workdir))
        wall_s = statistics.median(s["wall_s"] for s in samples)
        peak_mb = peak_rss_mb()
        record["iterations"] = samples
        if args.trace:
            metrics = tracing.layer_metrics(tracer, traced_wall_s)
            metrics["trace.wall_s"] = traced_wall_s
            metrics["trace.overhead_s"] = traced_wall_s - wall_s

        finish = workload.finish()
        checks += finish.checks
        record.update(finish.record)
        if not args.trace:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": wall_s,
                "peak_rss_mb": peak_mb,
                "events_per_s": rate(samples, "events"),
                "examples_per_s": rate(samples, "examples"),
                **finish.metrics,
            }
        record["setup_times_s"] = setup_times
    except Exception:
        traceback.print_exc()
        ops_failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = ops_failed + sum(1 for c in checks if not c.ok)
    attempted = max(1, ops_attempted + len(checks))
    record["checks"] = [vars(c) for c in checks]
    record["failed_frac"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=1)

    for check in checks:
        if not check.ok:
            print(f"FAILED check {check.name}: {check.detail}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:<13} {name:<34} {value:>16.6g} {units[name]}")
    print(f"{args.workload:<13} {'failed_frac':<34} {failed / attempted:>16.6g} fraction")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
