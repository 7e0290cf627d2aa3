#!/usr/bin/env python3
"""Compare a simcore_gbench JSON report against the committed baseline.

Fails (exit 1) when any benchmark regressed by more than --max-regress
(relative real_time increase), or when the benchmark sets of baseline and
current differ in either direction (a rename/addition must refresh the
committed baseline, not silently drop out of the gate). Handles both report shapes google-benchmark
produces: plain per-repetition "iteration" entries (the committed baseline)
and "aggregate" entries (what run_simcore.sh emits with
--benchmark_report_aggregates_only). For each benchmark name the
representative time is the minimum across repetitions, or the median
aggregate when only aggregates are present — the min/median is what's
stable across runs on a noisy host.

Usage: tools/compare_simcore.py BASELINE CURRENT [--max-regress 0.10]
"""

import argparse
import json
import sys


def load_report(path):
    with open(path) as f:
        return json.load(f)


def representative_times(report):
    """name -> representative real_time (ns) for one report."""
    iterations = {}   # name -> [real_time, ...]
    aggregates = {}   # name -> {aggregate_name: real_time}
    for entry in report.get("benchmarks", []):
        run_type = entry.get("run_type", "iteration")
        if run_type == "aggregate":
            agg = entry.get("aggregate_name", "")
            base = entry.get("run_name") or entry["name"]
            if base.endswith("_" + agg):
                base = base[: -len(agg) - 1]
            aggregates.setdefault(base, {})[agg] = entry["real_time"]
        else:
            base = entry.get("run_name") or entry["name"]
            iterations.setdefault(base, []).append(entry["real_time"])
    times = {name: min(vals) for name, vals in iterations.items()}
    for name, aggs in aggregates.items():
        if name in times:
            continue
        for pick in ("median", "mean"):
            if pick in aggs:
                times[name] = aggs[pick]
                break
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-regress", type=float, default=0.10,
                        help="max allowed relative slowdown (default 0.10)")
    args = parser.parse_args()

    base = representative_times(load_report(args.baseline))
    cur = representative_times(load_report(args.current))

    missing = sorted(set(base) - set(cur))
    unexpected = sorted(set(cur) - set(base))
    regressions = []
    print(f"{'benchmark':60} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(base):
        if name not in cur:
            continue
        delta = cur[name] / base[name] - 1.0
        flag = ""
        if delta > args.max_regress:
            flag = "  REGRESSED"
            regressions.append((name, delta))
        print(f"{name:60} {base[name]:12.1f} {cur[name]:12.1f} "
              f"{delta:+7.1%}{flag}")

    if missing:
        print(f"error: benchmarks missing from current report: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    if unexpected:
        # A rename shows up as missing+unexpected; a new benchmark without
        # a baseline entry would otherwise run ungated forever.
        print(f"error: benchmarks not in baseline (refresh "
              f"BENCH_simcore.baseline.json): {', '.join(unexpected)}",
              file=sys.stderr)
        return 1
    if regressions:
        print(f"error: {len(regressions)} benchmark(s) regressed more than "
              f"{args.max_regress:.0%}", file=sys.stderr)
        return 1
    print(f"simcore: no benchmark regressed more than {args.max_regress:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
