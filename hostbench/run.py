#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one workload.

Run from the root of the repository:

    python3 hostbench/run.py --workload divergent-compare --seed 1 \
        --seconds 10 --trace 0

The simulator library and the benchmark binary are built with CMake
into $CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench); the
build is incremental, so only the first run in a checkout compiles.
Build output goes to stderr. The binary's stdout is passed through; its
last line is the JSON result. See hostbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("divergent-compare", "memory-bound", "trace-stream", "paper-sweep")


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "hostbench", "-j", jobs],
    )
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("hostbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--goldens",
        default=os.path.join(HERE, "goldens.txt"),
        help="golden digest file (default: hostbench/goldens.txt)",
    )
    parser.add_argument(
        "--record-goldens",
        action="store_true",
        help="write the digests of this run to --goldens instead of checking",
    )
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "run", "run.hh")):
        sys.exit("hostbench: simulator sources not found next to " + HERE)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "hostbench"))
    work_dir = os.path.abspath(os.path.join(target, "hostbench-work"))
    os.makedirs(work_dir, exist_ok=True)
    binary = build(build_dir)

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--goldens", args.goldens,
        "--work-dir", work_dir,
    ]
    if args.record_goldens:
        cmd.append("--record-goldens")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
