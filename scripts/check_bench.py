#!/usr/bin/env python3
"""Compare bench stats documents against the checked-in baselines.

Each bench run (scripts/run_all.sh) drops BENCH_<name>.json at the repo
root: {"counters": {...}, "histograms": {hist: {count, sum, ..., p50,
p95, p99}}}. The committed reference documents live in bench/baselines/
under the same <name>.json. This script flags every histogram whose
median regressed by more than the threshold (default 25%) relative to its
baseline.

Medians below --min-us (default 100 microseconds) are skipped: at that
scale scheduler noise dwarfs real regressions.

Counters are work counts, a pure function of the bench's fixed script, so
they are compared exactly: every counter a baseline records must have the
same value in the current run (a missing one counts as a mismatch). A
counter present only in the current run is reported and never fails. A
change that moves a work count re-records the baseline and says why.

Usage:
  scripts/check_bench.py [--baseline-dir bench/baselines] [--current-dir .]
                         [--threshold 0.25] [--min-us 100] [--strict]

Exit status: 0 when no median regressed and no baseline counter moved (or
without --strict), 1 when either happened and --strict is set, 2 on usage
errors.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def compare_one(name, baseline, current, threshold, min_us):
    """Returns a list of (histogram, baseline_p50, current_p50, ratio)."""
    regressions = []
    base_hists = baseline.get("histograms", {})
    cur_hists = current.get("histograms", {})
    # A baseline may pin per-histogram thresholds in a top-level
    # "_thresholds" map — e.g. the observability-off guard histogram runs
    # tighter than the global default so instrumentation creep in the
    # disabled path fails CI even when it stays under 25%.
    overrides = baseline.get("_thresholds", {})
    for hist, base in sorted(base_hists.items()):
        cur = cur_hists.get(hist)
        if cur is None:
            print(f"  {name}/{hist}: missing from current run")
            continue
        base_p50 = float(base.get("p50", 0.0))
        cur_p50 = float(cur.get("p50", 0.0))
        if base_p50 < min_us:
            continue  # too small to measure reliably
        hist_threshold = float(overrides.get(hist, threshold))
        ratio = cur_p50 / base_p50 if base_p50 > 0 else float("inf")
        marker = ""
        if ratio > 1.0 + hist_threshold:
            marker = "  << REGRESSION"
            regressions.append((hist, base_p50, cur_p50, ratio))
        print(
            f"  {name}/{hist}: p50 {base_p50:.1f} -> {cur_p50:.1f} us "
            f"({ratio:.0%} of baseline, threshold {hist_threshold:.0%}){marker}"
        )
    return regressions


def compare_counters(name, baseline, current):
    """Returns a list of (counter, baseline_value, current_value or None)."""
    mismatches = []
    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for counter, base_value in sorted(base_counters.items()):
        cur_value = cur_counters.get(counter)
        if cur_value != base_value:
            mismatches.append((counter, base_value, cur_value))
            print(f"  {name}/counters/{counter}: {base_value} -> {cur_value}  << MOVED")
    extra = sorted(set(cur_counters) - set(base_counters))
    if extra:
        print(f"  {name}/counters: not in the baseline (informational): "
              + ", ".join(f"{c}={cur_counters[c]}" for c in extra))
    if base_counters and not mismatches:
        print(f"  {name}/counters: {len(base_counters)} equal to the baseline")
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default=".")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional slowdown that counts as a regression")
    parser.add_argument("--min-us", type=float, default=100.0,
                        help="ignore medians below this many microseconds")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any median regressed")
    args = parser.parse_args()

    if not os.path.isdir(args.baseline_dir):
        print(f"check_bench: no baseline dir {args.baseline_dir}; nothing to check")
        return 0

    baselines = sorted(
        f for f in os.listdir(args.baseline_dir) if f.endswith(".json")
    )
    if not baselines:
        print(f"check_bench: no baselines in {args.baseline_dir}; nothing to check")
        return 0

    all_regressions = []
    all_moved = []
    checked = 0
    for fname in baselines:
        name = fname[: -len(".json")]
        current_path = os.path.join(args.current_dir, f"BENCH_{name}.json")
        if not os.path.exists(current_path):
            print(f"{name}: no current run ({current_path} missing); skipped")
            continue
        print(f"{name}:")
        try:
            baseline = load(os.path.join(args.baseline_dir, fname))
            current = load(current_path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"  unreadable stats document: {e}", file=sys.stderr)
            return 2
        checked += 1
        for hist, base_p50, cur_p50, ratio in compare_one(
            name, baseline, current, args.threshold, args.min_us
        ):
            all_regressions.append((name, hist, base_p50, cur_p50, ratio))
        for counter, base_value, cur_value in compare_counters(name, baseline, current):
            all_moved.append((name, counter, base_value, cur_value))

    print()
    if not all_regressions and not all_moved:
        print(f"check_bench: OK — no median regressed >"
              f"{args.threshold:.0%} and no baseline counter moved across "
              f"{checked} bench(es)")
        return 0

    if all_regressions:
        print(f"check_bench: {len(all_regressions)} regression(s) "
              f">{args.threshold:.0%}:")
    for name, hist, base_p50, cur_p50, ratio in all_regressions:
        print(f"  {name}/{hist}: p50 {base_p50:.1f} -> {cur_p50:.1f} us "
              f"({ratio:.2f}x)")
    if all_moved:
        print(f"check_bench: {len(all_moved)} baseline counter(s) moved:")
    for name, counter, base_value, cur_value in all_moved:
        print(f"  {name}/counters/{counter}: {base_value} -> {cur_value}")
    return 1 if args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
