#!/usr/bin/env python3
"""Builds and runs the EcoCharge serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

Run from the root of a checkout. The first call configures and builds the
benchmark (and the EcoCharge libraries from src/) under .bench_build/, or
under $CARGO_TARGET_DIR when that is set; later calls rebuild only what
changed. The benchmark's last line of standard output is its JSON result.
`--test` builds and runs the benchmark's own test instead (the request
stream is a pure function of the seed).
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORK = os.path.join(BUILD_ROOT, "perfbench-work")


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    if argv == ["--test"]:
        if not build("stream_digest_test"):
            return 1
        test = os.path.join(BUILD, "stream_digest_test")
        return subprocess.run([test, os.path.join(WORK, "test")]).returncode
    if not build("perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + argv + ["--work-dir", WORK]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
