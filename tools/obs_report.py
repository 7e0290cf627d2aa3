#!/usr/bin/env python3
"""Diff two --metrics_json dumps, grouped by subsystem.

Takes a baseline and a current MetricsRegistry snapshot (the files written
by any bench's --metrics_json=<path> flag, or a committed baseline such as
BENCH_slo.baseline.json) and reports per-instrument deltas rolled up by
subsystem — kafka (kd.broker.*, kd.tcp.*), direct (kd.direct.*), rdma
(kd.rdma.*), sim (kd.sim.*), other.

Gate semantics match tools/bench_compare.py:
  - --tolerance (default 0.10) bounds the relative deviation, either
    direction, of every counter and gauge value.
  - Zero-valued baselines are invariants: any nonzero current value fails
    regardless of tolerance.
  - Key-set drift fails in BOTH directions — an instrument present in only
    one dump (renamed, dropped, or newly added without refreshing the
    baseline) is an error, never silently skipped.
  - Histograms gate on count (tolerance-checked); min/max/mean are
    reported for context only, since a schedule-identical run reproduces
    them exactly but any intended timing change would move every one.

Usage: tools/obs_report.py BASELINE CURRENT [--tolerance 0.10]
                                            [--only SUBSYSTEM]
"""

import argparse
import json
import sys


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

    base = load(args.baseline)
    cur = load(args.current)
    if args.only:
        base = {n: m for n, m in base.items()
                if subsystem_of(n) == args.only}
        cur = {n: m for n, m in cur.items() if subsystem_of(n) == args.only}

    failures = []
    missing = sorted(set(base) - set(cur))
    unexpected = sorted(set(cur) - set(base))

    by_subsystem = {}
    for name in sorted(set(base) & set(cur)):
        by_subsystem.setdefault(subsystem_of(name), []).append(name)

    for subsystem in ("kafka", "direct", "rdma", "sim", "other"):
        names = by_subsystem.get(subsystem, [])
        if not names:
            continue
        deviated = 0
        lines = []
        for name in names:
            for key, bval in sorted(base[name].items()):
                if key not in cur[name]:
                    failures.append(f"{name}: key '{key}' missing")
                    continue
                cval = cur[name][key]
                if bval == 0:
                    ok = cval == 0
                    delta = "" if ok else f" (now {cval})"
                else:
                    rel = cval / bval - 1.0
                    ok = abs(rel) <= args.tolerance
                    delta = f" ({rel:+.1%})" if cval != bval else ""
                if not ok:
                    failures.append(f"{name}/{key}: {bval} -> {cval}")
                    deviated += 1
                if not ok or cval != bval:
                    lines.append(
                        f"    {name}.{key:12} {bval:>14} -> {cval:>14}"
                        f"{delta}  {'ok' if ok else 'DEVIATED'}")
            for key in sorted(set(cur[name]) - set(base[name])):
                failures.append(f"{name}: key '{key}' not in baseline")
        status = "DEVIATED" if deviated else "ok"
        print(f"  {subsystem:8} {len(names):4} instruments, "
              f"{deviated} deviated  {status}")
        for line in lines:
            print(line)

    if missing:
        print(f"error: instruments missing from current dump: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    if unexpected:
        print(f"error: instruments not in baseline (refresh it): "
              f"{', '.join(unexpected)}", file=sys.stderr)
        return 1
    if failures:
        print(f"error: {len(failures)} metric(s) deviated more than "
              f"{args.tolerance:.0%} from the baseline", file=sys.stderr)
        return 1
    print(f"obs: all instruments within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
