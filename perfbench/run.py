#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds perfbench (and the repository's
eb_core, from source) into .bench_build/perfbench, runs the workload, and
prints the program's report followed, as the last line, by one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics BENCHMARK.json names, with --trace 1 its per-layer
metrics. A per-layer metric the workload does not exercise reads 0.
Metrics the workload reports that BENCHMARK.json does not name are
printed before it as "metric: <name> <value> <unit>" lines.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def build():
    """Configures once, then (re)builds; build output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        return fail(f"no repository sources (src/, CMakeLists.txt) in {ROOT}")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return fail(f"{args.workload} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[key]:
        got = result["metrics"].get(m["name"])
        if got is None:
            if key == "end_to_end":
                return fail(f"{args.workload} did not report {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            return fail(f"{m['name']} reported in {got['unit']}, "
                        f"declared in {m['unit']}")
        metrics[m["name"]] = got
    # Reported but without a bound: the wall-clock guards and memory that
    # did not hold steady under host contention (see README.md).
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, got in sorted(result["metrics"].items()):
        if name not in declared:
            print(f"metric: {name} {got['value']:.6g} {got['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
