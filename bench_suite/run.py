#!/usr/bin/env python3
"""Builds bench_suite from source and runs it.

Run from the repository root:

    python3 bench_suite/run.py --workload serve_spiral --seed 1 --seconds 10 --trace 0

Every argument is passed to the bench_suite binary (see README.md). The
build lives in .bench_build/ at the repository root; its output goes to
standard error, so the last line of standard output is the binary's result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "bench_suite")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("run.py: the pnn sources (CMakeLists.txt, src/) are not next to "
                 + os.path.basename(HERE) + "/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "bench_suite", "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main():
    build()
    args = sys.argv[1:]
    if "--scratch" not in args:
        args += ["--scratch", os.path.join(ROOT, ".bench_build", "suite_tmp")]
    try:
        done = subprocess.run([BINARY] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: bench_suite did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
