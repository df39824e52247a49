#!/usr/bin/env python3
"""Builds and runs the uolap host-time benchmark from the repo's sources.

    python3 hostbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 hostbench/run.py --all --seed 1   # every workload, one table
    python3 hostbench/run.py --self-test      # the benchmark's own tests

Run from the root of a uolap checkout. The first call configures and
builds hostbench/ (and the uolap libraries under src/) into
.bench_build/hostbench; later calls rebuild only what changed. The last
line of standard output is the result object; see hostbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
OUT = os.path.join(ROOT, ".bench_build", "hostbench-out")
EXPECTED = os.path.join(HERE, "expected", "counters.tsv")
WORKLOADS = ["scan", "multicore", "serve"]


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configures once, then builds `target`; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no uolap sources at %s/src; run from a full checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if run_child(cmd, stdout=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def run_child(cmd, capture=False, stdout=None, cwd=None):
    """subprocess.run that also stops the child when this script is
    terminated, so no benchmark process outlives its caller. `capture`
    collects both streams; otherwise stdout goes to `stdout` (inherited
    when None)."""
    sys.stdout.flush()
    pipe = subprocess.PIPE if capture else None
    child = subprocess.Popen(cmd, stdout=pipe or stdout, stderr=pipe,
                             text=True, cwd=cwd)
    try:
        out, err = child.communicate()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()
    return subprocess.CompletedProcess(cmd, child.returncode, out, err)


def source_rev():
    """The git revision, or a digest of the sources when the checkout is
    not a git work tree of its own."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = run_child(["git", "-C", ROOT, "rev-parse", "HEAD"], capture=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "hostbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--all", action="store_true",
                    help="run every workload in turn and print one table")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        binary = build("hostbench_test")
        os.makedirs(OUT, exist_ok=True)
        sys.exit(run_child([binary], cwd=OUT).returncode)
    if args.workload is None and not args.all:
        fail("--workload or --all is required")
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build("uolap_hostbench")
    os.makedirs(OUT, exist_ok=True)
    rev = source_rev()

    def run(workload, capture):
        return run_child([
            binary, "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace,
            "--source-rev", rev, "--out-dir", OUT, "--expected", EXPECTED,
        ], capture)

    if not args.all:
        sys.exit(run(args.workload, capture=False).returncode)

    status = 0
    rows = []
    for workload in WORKLOADS:
        proc = run(workload, capture=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((workload, result))
        status |= 0 if result["correct"] else 1
    for workload, result in rows:
        print("%s: %d ops, %d failed, error_rate %.6f" % (
            workload, result["attempted"], result["failed"],
            result["failed"] / result["attempted"]))
        for name, m in result["metrics"].items():
            print("  %-30s %16.6g %s" % (name, m["value"], m["unit"]))
    sys.exit(status)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    main()
