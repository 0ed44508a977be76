#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which pulls in the simulator's own
CMake build) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the harness. Build output goes to
stderr; stdout carries the harness output, whose last line is the
result JSON. The metric names and units printed are checked against
BENCHMARK.json. README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return ROOT / target / "perfbench"


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out)],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace",
         str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode or 1)

    result = json.loads(lines[-1])
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    declared = declared_metrics(args.trace)
    if printed != declared:
        sys.stderr.write("run.py: metrics differ from BENCHMARK.json: "
                         f"printed {sorted(printed.items())}, declared "
                         f"{sorted(declared.items())}\n")
        sys.exit(1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
