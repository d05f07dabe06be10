#!/usr/bin/env python3
"""Builds strata_bench from this checkout and runs one workload.

    python3 strata_bench/run.py --workload cells --seed 1 --seconds 20 --trace 0

Run from the root of the checkout. The build (Release) goes to
$CARGO_TARGET_DIR, default .bench_build; build output goes to stderr so the
last line of stdout is the benchmark's JSON result. Exits non-zero, printing
no result, when the sources cannot be built.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "strata_bench",
         "-j", str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "strata_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"strata_bench: build failed: {error}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--data-dir", os.path.join(build_dir, "data")]).returncode


if __name__ == "__main__":
    sys.exit(main())
