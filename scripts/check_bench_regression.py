#!/usr/bin/env python3
"""Gate google-benchmark results against checked-in baselines.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [options]
    check_bench_regression.py --pair B1.json C1.json --pair B2.json C2.json \
        [options]

Compares the median real_time of every benchmark present in both files of
a pair and fails (exit 1) when any current median exceeds baseline *
speed_factor * tolerance. The speed factor defaults to the *median* of the
per-bench current/baseline ratios: CI runners and the machine that
recorded the baseline differ in absolute speed, and a machine-speed
difference moves every ratio together while a real regression moves only
its own bench — so normalizing by the median ratio cancels the former and
flags the latter. (--calibrate NAME pins the factor to one bench instead;
the median is the robust default.) Tolerance defaults to 1.5x — wide
enough for scheduler noise, narrow enough to catch a real slowdown in the
labeling kernel or the incremental updaters.

Several baseline/current pairs gate in one invocation via repeated
--pair: each pair is normalized independently (the labeling and streaming
suites have different bench families and may have been recorded on
different machines), and the run fails if any pair regresses.

Reads both the aggregate form (--benchmark_report_aggregates_only=true,
entries tagged aggregate_name == "median") and the raw form (medians are
computed here across repetitions of the same name).
"""

import argparse
import json
import statistics
import sys


def load_medians(path):
    """name -> median real_time (ns unless the file says otherwise)."""
    with open(path) as f:
        doc = json.load(f)
    aggregates = {}
    raw = {}
    for entry in doc.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                aggregates[entry["run_name"]] = float(entry["real_time"])
        else:
            raw.setdefault(entry["name"], []).append(float(entry["real_time"]))
    if aggregates:
        return aggregates
    return {name: statistics.median(times) for name, times in raw.items()}


def check_pair(baseline_path, current_path, tolerance, calibrate):
    """Gates one baseline/current pair. Returns 0 ok, 1 regression, 2 error."""
    baseline = load_medians(baseline_path)
    current = load_medians(current_path)
    common = sorted(set(baseline) & set(current))
    print(f"== {baseline_path} vs {current_path}")
    if not common:
        print("error: no benchmarks common to baseline and current run",
              file=sys.stderr)
        return 2

    if calibrate:
        if calibrate not in baseline or calibrate not in current:
            print(f"error: calibration bench {calibrate!r} missing",
                  file=sys.stderr)
            return 2
        factor = current[calibrate] / baseline[calibrate]
        print(f"machine speed factor ({calibrate}): {factor:.3f}")
    else:
        factor = statistics.median(
            current[name] / baseline[name] for name in common)
        print(f"machine speed factor (median of {len(common)} ratios): "
              f"{factor:.3f}")

    regressions = []
    width = max(len(name) for name in common)
    for name in common:
        allowed = baseline[name] * factor * tolerance
        ratio = current[name] / (baseline[name] * factor)
        status = "ok"
        if current[name] > allowed:
            status = "REGRESSION"
            regressions.append(name)
        print(f"{name:<{width}}  baseline {baseline[name]:>14.0f}  "
              f"current {current[name]:>14.0f}  x{ratio:5.2f}  {status}")

    missing = sorted(set(baseline) - set(current))
    if missing:
        print(f"note: {len(missing)} baseline bench(es) absent from the "
              f"current run: {', '.join(missing)}")
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{tolerance:.2f}x: {', '.join(regressions)}",
              file=sys.stderr)
        return 1
    print(f"\nall {len(common)} benches within {tolerance:.2f}x of baseline")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", default="")
    parser.add_argument("current", nargs="?", default="")
    parser.add_argument("--pair", nargs=2, action="append", default=[],
                        metavar=("BASELINE", "CURRENT"),
                        help="gate this baseline/current pair (repeatable); "
                             "each pair is speed-normalized independently")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="allowed slowdown factor after calibration")
    parser.add_argument("--calibrate", default="",
                        help="pin the speed factor to this benchmark "
                             "(default: median of per-bench ratios; applies "
                             "to the positional pair only)")
    args = parser.parse_args(argv)

    pairs = []
    if args.baseline and args.current:
        pairs.append((args.baseline, args.current, args.calibrate))
    elif args.baseline or args.current:
        print("error: positional form needs both BASELINE and CURRENT",
              file=sys.stderr)
        return 2
    pairs.extend((b, c, "") for b, c in args.pair)
    if not pairs:
        parser.print_usage(sys.stderr)
        return 2

    worst = 0
    for i, (baseline_path, current_path, calibrate) in enumerate(pairs):
        if i:
            print()
        worst = max(worst, check_pair(baseline_path, current_path,
                                      args.tolerance, calibrate))
    return worst


if __name__ == "__main__":
    sys.exit(main())
