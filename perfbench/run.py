#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload onepass|twopass|net --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, and build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Exits
non-zero without a result when the library sources are missing or the
build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sorter.h")):
        sys.stderr.write("run.py: library sources not found under %s/src\n"
                         % ROOT)
        return False
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", out_dir, "--target", "sortbench", "-j",
           str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    out_dir = build_dir()
    if not build(out_dir):
        sys.stderr.write("run.py: build failed\n")
        return 2
    binary = os.path.join(out_dir, "sortbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
