#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady.

    python3 perfbench/steady.py [--runs 10]

Run from the repository root. Runs every workload of BENCHMARK.json --runs
times through perfbench/run.py for its run_seconds, on seeds 1..runs, and
prints for every end-to-end metric its median, quartiles
(statistics.quantiles, n=4) and spread, the interquartile distance as a
share of the median, against the metric's bound. Then runs each workload
once more on a held-out seed that was not used while the benchmark was
built. Exits 1 when a spread exceeds its bound, a modelled metric (sim_*)
differs at all between runs, or a run is incorrect or has a failed
operation.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOLDOUT_SEED = 104729


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    # Host steal during the timed phase, from the run's report, so that a
    # wide spread can be traced to host contention.
    steal = re.search(r"host steal ([\d.]+) ms", proc.stdout)
    result["steal_ms"] = float(steal.group(1)) if steal else float("nan")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            r = run_once(workload, seed, seconds)
            results.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"host_steal_ms={r['steal_ms']:.0f}", flush=True)
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            print(f"  BREACH {workload}: incorrect run or failed operations")
            ok = False
        print(f"{workload}: {'metric':<22} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
        medians = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            medians[name] = med
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name.startswith("sim_"):
                if len(set(values)) != 1:
                    flag = "BREACH (modelled metric differs)"
            elif spread > m["bound"]:
                flag = "BREACH"
            ok = ok and not flag
            print(f"{workload}: {name:<22} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {spread:>8.4f} {m['bound']:>6} "
                  f"{spread / m['bound']:>12.3f} {flag}")
        held = run_once(workload, HOLDOUT_SEED, seconds)
        line = f"{workload} held-out seed {HOLDOUT_SEED}: " \
               f"correct={held['correct']} failed={held['failed']}"
        for m in spec["end_to_end"]:
            v = held["metrics"][m["name"]]["value"]
            med = medians[m["name"]]
            if m["name"].startswith("sim_") and v != med:
                line += f" BREACH({m['name']} differs)"
                ok = False
            line += f" {m['name']}={v / med if med else 0:.3f}x"
        if not held["correct"] or held["failed"] != 0:
            line += " BREACH(held-out run incorrect or has failed operations)"
            ok = False
        print(line, flush=True)
    print("steady: PASS" if ok else "steady: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
