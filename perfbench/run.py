#!/usr/bin/env python3
"""Builds the benchmark program from source, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload data-loss --seed 1 --seconds 45 --trace 0

The first call configures and builds perfbench/ (which compiles the program's
libraries from src/) into .bench_build/; later calls only rebuild what
changed. Build output goes to stderr, so the last line on stdout is the
program's result JSON. A traced run (--trace 1) also writes its spans to
.bench_build/spans/<workload>-seed<N>.jsonl.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests instead.
"""

import os
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BENCH_BUILD = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BENCH_BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BENCH_BUILD), "-j", jobs, "--target", target],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def self_test():
    if not build("perfbench_test"):
        return 1
    code = subprocess.run([str(BENCH_BUILD / "bin" / "perfbench_test")]).returncode
    sys.path.insert(0, str(ROOT / "perfbench"))
    suite = unittest.defaultTestLoader.discover(
        str(ROOT / "perfbench" / "tests"), pattern="test_*.py")
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 1 if code or not result.wasSuccessful() else 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if not build("perfbench"):
        return 1
    args = list(argv)
    flags = dict(zip(args[::2], args[1::2]))
    if flags.get("--trace") == "1":
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        name = f"{flags.get('--workload')}-seed{flags.get('--seed')}.jsonl"
        args += ["--spans", str(spans / name)]
    try:
        return subprocess.run([str(BENCH_BUILD / "bin" / "perfbench")] + args,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
