#!/usr/bin/env python3
"""Builds and runs one workload of the DBGC benchmark (perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload drive_intra --seed 1 --seconds 20 --trace 0

The benchmark binary is configured and built from source (Release) under
$CARGO_TARGET_DIR, or .bench_build when that is unset, then run once. Build
output goes to stderr, so the last line on stdout is the run's JSON result.
The exit code is the binary's: 0 ok, 1 correctness miss, 2 invalid run
(the load generator fell behind), anything else a build or usage failure.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("drive_intra", "fleet_10hz", "temporal_drive")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: the dbgc sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dbgc_perfbench")


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"error: benchmark build failed: {err}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-revision", git_revision()]
    if args.trace:
        spans = os.path.join(ROOT, target, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--span-out", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
