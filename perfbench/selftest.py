#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Runs each workload in BENCHMARK.json with --scale tiny, untraced and
traced, and checks that:
  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, and the run is correct;
  - every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is emitted, with its unit, and nothing else;
  - every end-to-end value is non-zero and the error rate is 0
    (verified_rate is 1, failed is 0);
  - the traced run's kernel replay reproduced the sort's output CRC;
  - the run stamped its environment and the host's CPU steal share.
Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV_KEYS = {"nproc", "cpu", "compiler", "build_type", "simd_backend",
            "simd_vector_active", "perf_counters", "checkout_fs", "data_fs"}


def check_run(spec, workload, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ["exit code %d, stderr tail: %s"
                % (proc.returncode, proc.stderr[-400:])]
    errors = []
    env = [l for l in lines if l.startswith("# env ")]
    if not env:
        errors.append("no '# env' stamp")
    else:
        missing = ENV_KEYS - set(json.loads(env[-1][len("# env "):]))
        if missing:
            errors.append("env stamp lacks %s" % sorted(missing))
    host = [l for l in lines if l.startswith("# host ")]
    if not host or "cpu_steal_share" not in json.loads(host[-1][7:]):
        errors.append("no '# host' stamp with cpu_steal_share")

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys are %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append("attempted %r failed %r"
                      % (result.get("attempted"), result.get("failed")))

    want = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    got = result.get("metrics", {})
    names = [m["name"] for m in want]
    if sorted(got) != sorted(names):
        errors.append("metric names differ: missing %s, extra %s" % (
            sorted(set(names) - set(got)), sorted(set(got) - set(names))))
    for m in want:
        v = got.get(m["name"])
        if v is None:
            continue
        if v.get("unit") != m["unit"]:
            errors.append("%s unit %r, want %r"
                          % (m["name"], v.get("unit"), m["unit"]))
        if not isinstance(v.get("value"), (int, float)):
            errors.append("%s value %r" % (m["name"], v.get("value")))
        elif trace == 0 and v["value"] == 0:
            errors.append("%s is 0" % m["name"])
    if trace == 0 and got.get("verified_rate", {}).get("value") != 1:
        errors.append("error rate is not 0")
    if trace == 1 and got.get("trace.replay_crc_match", {}).get("value") != 1:
        errors.append("replay CRC does not match the sort's")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check_run(spec, w["name"], trace)
            print("%-8s trace=%d %s" % (w["name"], trace,
                                        "ok" if not errors else "FAIL"))
            for e in errors:
                print("    " + e)
            failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
