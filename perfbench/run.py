#!/usr/bin/env python3
"""Builds the benchmark binary and runs one workload of the benchmark.

    python3 perfbench/run.py --workload analyze|tune|recover --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. It configures perfbench/CMakeLists.txt
(which builds the checkout's src/ libraries in Release) under .bench_build/
(or $CARGO_TARGET_DIR), builds the benchmark binary, and runs it. With
--trace 1 the spans are written to .bench_build/spans/. The last line of
standard output is the binary's JSON result; build output goes to standard
error.

--src DIR and --build DIR measure another source tree with this benchmark
code (perfbench/compare.py uses them).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(src, build_dir):
    """Configures and builds incrementally; returns the binary's path."""
    if not os.path.isfile(os.path.join(src, "src", "CMakeLists.txt")):
        sys.exit(f"run.py: no Holmes sources under {src}/src")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         f"-DHOLMES_ROOT={src}"],
        check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["analyze", "tune", "recover"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--src", default=ROOT,
                        help="source tree to measure (default: this checkout)")
    parser.add_argument("--build", default=None,
                        help="build directory (default: .bench_build/perfbench)")
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.abspath(args.build or os.path.join(out_root, "perfbench"))
    try:
        binary = build(os.path.abspath(args.src), build_dir)
    except subprocess.CalledProcessError as e:
        sys.exit(f"run.py: build failed ({e})")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(out_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans",
                    os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: the benchmark ran longer than {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
