#!/usr/bin/env python3
"""Checks that the kernels bench gate fails when a baseline row is missing.

    python3 tests/bench_compare_test.py

Runs scripts/bench_compare.py with the kernels gate's flags (the
"kernel bench gate" step of scripts/ci.sh --stage=bench) against the
committed BENCH_kernels.json. Compared with itself, the gate must pass;
compared with a copy that lacks the `kernel=pmerge ... max_ranges=4` row,
as a fresh run that dropped that row would, it must exit 1 and name the
row. Exits 0 when both hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_kernels.json")
GATE_FLAGS = ["--warn-only", "--threshold", "0.5", "--fail-on", "structural",
              "--fail-on", "critical_path_s", "--band", "0.6"]


def compare(new_path):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "bench_compare.py"),
         BASELINE, new_path] + GATE_FLAGS,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def main():
    errors = []
    same = compare(BASELINE)
    if same.returncode != 0:
        errors.append("baseline vs itself exited %d:\n%s"
                      % (same.returncode, same.stdout))

    with open(BASELINE, encoding="utf-8") as f:
        doc = json.load(f)
    dropped = [e for e in doc["suites"]
               if e["config"].startswith("kernel=pmerge ")
               and e["config"].endswith(" max_ranges=4")]
    if len(dropped) != 1:
        errors.append("expected one pmerge max_ranges=4 row, found %d"
                      % len(dropped))
    else:
        doc["suites"].remove(dropped[0])
        with tempfile.TemporaryDirectory() as tmp:
            new_path = os.path.join(tmp, "BENCH_kernels.json")
            with open(new_path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            short = compare(new_path)
        if short.returncode != 1:
            errors.append("missing row: exit %d, want 1:\n%s"
                          % (short.returncode, short.stdout))
        elif dropped[0]["config"] not in short.stdout:
            errors.append("missing row not named:\n%s" % short.stdout)

    for e in errors:
        print("FAIL: " + e)
    print("bench_compare_test: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
