#!/usr/bin/env python3
"""Builds the repository's library sources with the benchmark driver and runs
one workload.

    python3 perfbench/run.py --workload epoch-audit --seed 1 --seconds 30

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) as a Release build; the first run compiles,
later runs reuse it. Build output goes to stderr, so the last stdout line is
the driver's result JSON. The exit status is the driver's: nonzero when a
correctness check fails or the build cannot be made.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the repository sources (src/) are missing")
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "sor_perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "sor_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(target.resolve() / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    # End-to-end figures are taken untraced, with a cold memory-only cache;
    # the driver switches tracing on itself for --trace 1.
    env = dict(os.environ, SOR_TELEMETRY="off")
    env.pop("SOR_CACHE", None)
    env.pop("SOR_CACHE_DIR", None)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
