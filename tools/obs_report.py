#!/usr/bin/env python3
"""Diff two --metrics_json dumps, grouped by subsystem.

Takes a baseline and a current MetricsRegistry snapshot (the files written
by any bench's --metrics_json=<path> flag, or a committed baseline such as
BENCH_slo.baseline.json) and reports per-instrument deltas rolled up by
subsystem — kafka (kd.broker.*, kd.tcp.*), direct (kd.direct.*), rdma
(kd.rdma.*), sim (kd.sim.*), other.

Each subsystem goes through tools/bench_compare.py's diff(), so the gate
is the same as for the deterministic benches: a relative --tolerance
(default 0.10) in both directions, a zero baseline as an invariant, and
key drift failing in both directions. Counters and gauges are compared by
value (gauges also by high_water), histograms by count only: min/max/mean
would move with any intended timing change.

Usage: tools/obs_report.py BASELINE CURRENT [--tolerance 0.10]
                                            [--only SUBSYSTEM]
"""

import argparse
import json
import os
import sys

import bench_compare


SUBSYSTEMS = (
    ("kafka", ("kd.broker.", "kd.tcp.")),
    ("direct", ("kd.direct.",)),
    ("rdma", ("kd.rdma.",)),
    ("sim", ("kd.sim.",)),
)


def subsystem_of(name):
    for subsystem, prefixes in SUBSYSTEMS:
        if name.startswith(prefixes):
            return subsystem
    return "other"


def flatten(dump):
    """-> {instrument_name: {metric_key: number}}."""
    out = {}
    for name, value in dump.get("counters", {}).items():
        out[name] = {"value": value}
    for name, gauge in dump.get("gauges", {}).items():
        out[name] = {"value": gauge["value"],
                     "high_water": gauge["high_water"]}
    for name, hist in dump.get("histograms", {}).items():
        out[name] = {"count": hist["count"]}
    return out


def load(path):
    with open(path) as f:
        return flatten(json.load(f))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max relative deviation per metric "
                             "(default 0.10)")
    parser.add_argument("--only", default=None,
                        help="restrict to one subsystem "
                             "(kafka/direct/rdma/sim/other)")
    args = parser.parse_args()
    baseline_name = os.path.basename(args.baseline)

    base = load(args.baseline)
    cur = load(args.current)
    failures, missing, unexpected = [], [], []
    for subsystem in ("kafka", "direct", "rdma", "sim", "other"):
        if args.only and subsystem != args.only:
            continue
        sub_base = {n: m for n, m in base.items()
                    if subsystem_of(n) == subsystem}
        sub_cur = {n: m for n, m in cur.items()
                   if subsystem_of(n) == subsystem}
        if not sub_base and not sub_cur:
            continue
        f, m, u = bench_compare.diff(sub_base, sub_cur, args.tolerance,
                                     baseline_name)
        deviated = len(f) + len(m) + len(u)
        print(f"  {subsystem:8} {len(sub_base):4} instruments, "
              f"{deviated} deviated  {'DEVIATED' if deviated else 'ok'}")
        failures += f
        missing += m
        unexpected += u

    status = bench_compare.verdict(failures, sorted(missing),
                                   sorted(unexpected), "instruments")
    if status == 0:
        print(f"obs: all instruments within {args.tolerance:.0%} of "
              f"baseline")
    return status


if __name__ == "__main__":
    sys.exit(main())
