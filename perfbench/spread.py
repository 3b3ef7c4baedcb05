#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads onepass,twopass,net]
        [--runs 10] [--save FILE] [--compare FILE]

Runs each workload untraced on seeds 1..runs. For every end-to-end metric
it prints the median of the runs and the interquartile range as a share
of the median, using Python's statistics.quantiles(values, n=4), and
flags spreads above a third of the metric's bound in BENCHMARK.json.
setup_s is reported and flagged like the others but does not fail the
check: a comparison judges set-up by its median only (README.md, "Noise
and bounds"). --save writes the raw values as JSON; --compare reads such
a file and reports, per metric, how far this set's median moved from the
saved one and whether that stays within the bound. Each workload's header
shows the median and largest share of CPU time the hypervisor stole
during a run's timed loop, from the runs' "# host" lines. Exits 1 if any
run fails or any check is exceeded.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_PREFIX = "# host "


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    """Metric values by name plus "_steal", or None if the run failed."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        return None
    values = {k: v["value"] for k, v in result["metrics"].items()}
    host = [l for l in lines if l.startswith(HOST_PREFIX)]
    values["_steal"] = (json.loads(host[-1][len(HOST_PREFIX):])
                        ["cpu_steal_share"] if host else float("nan"))
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def worse_by(metric, old, new):
    """Share by which `new` is worse than `old` (negative = better)."""
    if old == 0:
        return 0.0
    delta = (new - old) / old
    return delta if metric["better"] == "lower" else -delta


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)

    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    old = {}
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)

    ok = True
    saved = {}
    for w in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            r = run_once(spec, w, seed)
            if r is None:
                print("%s seed %d: run failed" % (w, seed))
                ok = False
                continue
            runs.append(r)
        saved[w] = runs
        if len(runs) < 2:
            continue
        steal = [r["_steal"] for r in runs]
        print("== %s (%d runs, host steal median %.1f%%, max %.1f%%)"
              % (w, len(runs), 100 * statistics.median(steal),
                 100 * max(steal)))
        for m in spec["end_to_end"]:
            name = m["name"]
            bound = m["bound"]
            med, iqr = spread([r[name] for r in runs])
            flag = ("FAIL" if iqr > bound else
                    "wide" if iqr > bound / 3 else "ok")
            if name == "setup_s":
                flag += ", not checked"
            else:
                ok &= iqr <= bound
            line = "  %-16s median %12.5g %-6s spread %6.3f" % (
                name, med, m["unit"], iqr)
            line += "  (bound %.3f: %s)" % (bound, flag)
            if w in old:
                prev = statistics.median(r[name] for r in old[w])
                d = worse_by(m, prev, med)
                line += "  vs saved %+.3f %s" % (
                    d, "FAIL" if d > bound else "ok")
                ok &= d <= bound
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
