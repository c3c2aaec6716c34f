#!/usr/bin/env python3
"""Build and run the camera-serving benchmark.

    python3 camerabench/run.py --workload live_fleet --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the benchmark (and the mog libraries
it links, from ../src) with CMake into $CARGO_TARGET_DIR, default
.bench_build, then runs one workload. Build output goes to stderr; the
benchmark's report goes to stdout, and its last line is the result object.
Exits non-zero, without a result, when the build or the run fails.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: pathlib.Path) -> pathlib.Path:
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "camerabench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "camerabench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = BENCH_DIR.parent / build_dir
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    try:
        has_result = isinstance(json.loads(proc.stdout.splitlines()[-1]), dict)
    except (IndexError, json.JSONDecodeError):
        has_result = False
    if not has_result:
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
