#!/usr/bin/env python3
"""Run-to-run spread of the host-time benchmark over several seeds.

    python3 hostbench/spread.py --workload multicore --seeds 1-10
    python3 hostbench/spread.py --workload scan --seeds 3,5,8 --seconds 5

Runs hostbench/run.py once per seed (sequentially, from the repo root) and
prints, for every end-to-end metric, the median of the runs and the spread
(q3 - q1) / median with q1, q3 from statistics.quantiles(values, n=4), next
to the metric's bound in BENCHMARK.json. Every run's result line is kept
in .bench_build/hostbench-out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """(median, (q3 - q1) / median) of `values`."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    out_dir = os.path.join(ROOT, ".bench_build", "hostbench-out")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "spread-%s.jsonl" % args.workload)

    values = {}
    failures = 0
    with open(log_path, "a") as log:
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("seed %d: exit %d\n%s" % (seed, proc.returncode,
                                                 proc.stderr[-2000:]))
                failures += 1
                continue
            result = json.loads(lines[-1])
            notes = [l for l in lines if l.startswith(
                ("# expected counters", "# address-dependent", "# FAILED"))]
            log.write(json.dumps({"seed": seed, "result": result,
                                  "notes": notes}) + "\n")
            failures += 0 if result["correct"] else 1
            row = []
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                row.append("%s=%.4g" % (name, m["value"]))
            print("seed %d: %s%s" % (seed, " ".join(row),
                                     "" if result["correct"] else " INCORRECT"))
            for note in notes:
                print("    " + note)
            sys.stdout.flush()

    ok = failures == 0
    print("\n%-14s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        if name not in values:
            continue
        med, spr = spread(values[name])
        bound = metric["bound"]
        flag = "" if spr <= bound / 3 else (
            " above bound/3" if spr <= bound else " ABOVE BOUND")
        ok &= spr <= bound
        print("%-14s %12.6g %8.4f %8.3f%s" % (name, med, spr, bound, flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
