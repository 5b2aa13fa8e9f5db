#!/usr/bin/env python3
"""Build and run the LS3DF repository benchmark.

Usage (from the checkout root):

    python3 perfbench/run.py --workload alloy|sheet|service --seed N \
        --seconds S --trace 0|1

Builds perfbench/driver.cpp and the LS3DF library from this checkout into
.bench_build/perfbench (Release), runs one measured window of the workload
and prints the driver's JSON result as the last line of standard output.
Build and progress output go to standard error. A run with --trace 1 also
leaves the Chrome trace of its last solve in
.bench_build/trace-<workload>.json. Exits non-zero, printing no result,
when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
WORKLOADS = ("alloy", "sheet", "service")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds = [["cmake", "--build", BUILD, "--target", "perfbench_driver",
             "-j", jobs]]
    # A generated tree re-runs cmake itself when a CMakeLists changes.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S, cwd=ROOT)
        trace = os.path.join(work, "trace.json")
        if os.path.exists(trace):
            shutil.move(trace, os.path.join(OUT, f"trace-{args.workload}.json"))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed driver result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
