#!/usr/bin/env python3
"""Compares two BENCH_*.json perf-trajectory files.

    scripts/bench_compare.py BASELINE NEW [--threshold FRAC] [--warn-only]
                             [--fail-on METRIC]... [--band FRAC]

Entries are matched by (suite, config); for every metric present in both
the relative change is printed, and a change past --threshold (default
0.25, i.e. 25%) in the *worse* direction counts as a regression. Metrics
named *_s or *_ms or *_us or named "seconds" are lower-is-better
(times), except rates named *_per_s; everything else (throughputs,
counts) is higher-is-better.
Structural metrics (runs, avg_run_over_W, ties_per_record, ...) describe
the workload, not its speed, and are compared for drift in either
direction.

Two tiers of enforcement (docs/perf.md):

  * Ordinary metrics are advisory on shared CI machines: with
    --warn-only a regression prints but does not fail the run.
  * --fail-on METRIC promotes that metric to a hard gate that fails the
    run even under --warn-only. The special name "structural" promotes
    every structural metric at once. --band FRAC (default: the
    --threshold value) is the tolerance used for promoted metrics, so
    the hard gate can carry a wider noise band than the advisory tier.
  * With any --fail-on, a baseline (suite, config) missing from NEW is
    an enforced regression: a row dropped because its run failed must
    fail the gate, not vanish from it. Rows only in NEW are notes.

Exit status: 0 when no enforced regression, 1 on an enforced regression
(any regression without --warn-only; a --fail-on regression or missing
row always), 2 on usage/schema errors.
"""

import argparse
import json
import sys

# Workload-shape metrics: a drift in either direction is suspicious (the
# benchmark is no longer measuring the same thing), but neither direction
# is "better". The service suite's admission telemetry is structural too:
# peak admitted bytes and down-negotiation counts are facts about the
# arbitration shape, not speed.
STRUCTURAL = {
    "runs",
    "avg_run_over_W",
    "ties_per_record",
    "peak_admitted_mb",
    "down_negotiated",
    # The kernels suite's partitioned merge: how many key ranges the
    # partitioner actually produced. A drift means the splitter sampling
    # changed shape, not that the merge got faster or slower.
    "ranges",
    # Job accounting in sort_loadgen's report: every configured job must
    # keep succeeding; a drift means the harness shape changed.
    "jobs_ok",
    "jobs_failed",
    # The kernels suite's in-cache sort shape. simd_active says whether
    # the vector path actually ran (a silent fall-back to scalar would
    # otherwise read as a plain slowdown); radix_passes / tie_shortcuts
    # say how the MSB-radix hybrid split the runs. Drift in any of these
    # means the kernel changed shape, not just speed.
    "simd_active",
    "radix_passes",
    "tie_shortcuts",
}


def lower_is_better(metric: str) -> bool:
    # Rates (mb_per_s, records_per_s, ...) carry the time suffix but are
    # throughputs.
    if metric.endswith("_per_s"):
        return False
    # sim_* metrics are cache-simulator miss/stall counts: fewer is
    # always better regardless of the unit suffix.
    return (
        metric == "seconds"
        or metric.endswith("_s")
        or metric.endswith("_ms")
        or metric.endswith("_us")
        or metric.startswith("sim_")
    )


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    if doc.get("kind") != "alphasort.bench_report":
        sys.exit(f"bench_compare: {path} is not an alphasort.bench_report")
    if doc.get("schema_version") != 1:
        sys.exit(
            f"bench_compare: {path} has schema_version "
            f"{doc.get('schema_version')}, this reader understands 1"
        )
    entries = {}
    for entry in doc.get("suites", []):
        entries[(entry["suite"], entry["config"])] = entry["metrics"]
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative change that counts as a regression (default 0.25)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="print ordinary regressions but do not fail on them "
        "(--fail-on metrics still fail)",
    )
    parser.add_argument(
        "--fail-on",
        action="append",
        default=[],
        metavar="METRIC",
        help="metric enforced even under --warn-only; repeatable; "
        '"structural" promotes every structural metric',
    )
    parser.add_argument(
        "--band",
        type=float,
        default=None,
        help="tolerance for --fail-on metrics (default: --threshold)",
    )
    args = parser.parse_args()

    fail_on = set(args.fail_on)
    band = args.band if args.band is not None else args.threshold

    base = load(args.baseline)
    new = load(args.new)

    def enforced(metric: str) -> bool:
        if metric in fail_on:
            return True
        return "structural" in fail_on and metric in STRUCTURAL

    soft = []
    hard = []
    compared = 0
    header = f"{'suite/config':<52} {'metric':<16} {'base':>12} {'new':>12} {'change':>8}"
    print(header)
    print("-" * len(header))
    for key in sorted(base.keys() & new.keys()):
        suite, config = key
        label = f"{suite}: {config}"
        for metric in sorted(base[key].keys() & new[key].keys()):
            b, n = base[key][metric], new[key][metric]
            if b == 0:
                change = 0.0 if n == 0 else float("inf")
            else:
                change = (n - b) / abs(b)
            compared += 1
            limit = band if enforced(metric) else args.threshold
            if metric in STRUCTURAL:
                worse = abs(change) > limit
            elif lower_is_better(metric):
                worse = change > limit
            else:
                worse = change < -limit
            if worse and enforced(metric):
                flag = "  <-- REGRESSION (enforced)"
                hard.append((label, metric, change))
            elif worse:
                flag = "  <-- REGRESSION"
                soft.append((label, metric, change))
            else:
                flag = ""
            print(
                f"{label:<52} {metric:<16} {b:>12.6g} {n:>12.6g} "
                f"{change:>+7.1%}{flag}"
            )

    only_base = sorted(base.keys() - new.keys())
    only_new = sorted(new.keys() - base.keys())
    missing = only_base if fail_on else []
    for key in only_base:
        if fail_on:
            print(f"{key[0]}: {key[1]}  <-- MISSING from {args.new} (enforced)")
        else:
            print(f"note: {key[0]}: {key[1]} only in {args.baseline}")
    for key in only_new:
        print(f"note: {key[0]}: {key[1]} only in {args.new}")
    if compared == 0:
        sys.exit("bench_compare: no comparable (suite, config) pairs")

    print()
    if hard or missing:
        print(
            f"bench_compare: {len(hard)} enforced regression(s) past "
            f"{band:.0%} across {compared} metric(s), "
            f"{len(missing)} baseline row(s) missing"
        )
        return 1
    if soft:
        print(
            f"bench_compare: {len(soft)} regression(s) past "
            f"{args.threshold:.0%} across {compared} metric(s)"
        )
        return 0 if args.warn_only else 1
    print(f"bench_compare: OK ({compared} metric(s) within threshold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
