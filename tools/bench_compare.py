#!/usr/bin/env python3
"""Gate a deterministic bench JSON report against its committed baseline.

The virtual-time-deterministic benches (abl_datapath_protocols,
tbl_client_scaling, tbl_failover) are gated with the same semantics:

  - numeric metrics must match within a relative tolerance, either
    direction;
  - a zero-valued baseline metric is an invariant — any nonzero current
    value fails regardless of tolerance;
  - key-set drift fails in BOTH directions: a benchmark or metric present
    in only one report (renamed, dropped, or added without refreshing the
    baseline) is an error, never silently skipped;
  - host-speed-dependent metrics (keys starting with "host_") are excluded
    from gating.

Run as a script for a bench with no further invariants; a per-bench
script passes its invariant check (memory constancy, exactly-once
delivery) to main().

Usage: tools/bench_compare.py BASELINE CURRENT [--tolerance 0.10]
"""

import argparse
import json
import os
import sys


def load(path):
    """Returns {bench_name: {metric: value}} with host_* keys stripped."""
    with open(path) as f:
        report = json.load(f)
    rows = {}
    for entry in report.get("benchmarks", []):
        name = entry["name"]
        rows[name] = {k: v for k, v in entry.items()
                      if k != "name" and isinstance(v, (int, float))
                      and not isinstance(v, bool)
                      and not k.startswith("host_")}
    return rows


def diff(base, cur, tolerance, baseline_name):
    """Per-metric comparison; returns (failures, missing, unexpected).

    Prints one line per compared metric. `missing`/`unexpected` are
    benchmark names present in only one report; metric-level drift within
    a shared benchmark lands in `failures`.
    """
    failures = []
    missing = sorted(set(base) - set(cur))
    unexpected = sorted(set(cur) - set(base))
    for name in sorted(base):
        if name not in cur:
            continue
        for key in sorted(set(cur[name]) - set(base[name])):
            failures.append(
                f"{name}: metric '{key}' not in baseline (refresh "
                f"{baseline_name})")
        for key, bval in sorted(base[name].items()):
            if key not in cur[name]:
                failures.append(f"{name}: metric '{key}' missing")
                continue
            cval = cur[name][key]
            if bval == 0:
                ok = cval == 0
                delta = "" if ok else f" (now {cval})"
            else:
                rel = cval / bval - 1.0
                ok = abs(rel) <= tolerance
                delta = f" ({rel:+.1%})"
            status = "ok" if ok else "DEVIATED"
            print(f"{name:32} {key:22} {bval:14.3f} -> {cval:14.3f}"
                  f"{delta:12} {status}")
            if not ok:
                failures.append(f"{name}/{key}: {bval} -> {cval}")
    return failures, missing, unexpected


def verdict(failures, missing, unexpected, kind="benchmarks"):
    """Prints the gate's errors; returns its exit status.

    A `kind` (benchmark, instrument) present in only one report fails
    first; otherwise every metric failure is listed.
    """
    if missing:
        print(f"error: {kind} missing from current report: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    if unexpected:
        print(f"error: {kind} not in baseline (refresh it): "
              f"{', '.join(unexpected)}", file=sys.stderr)
        return 1
    for f in failures:
        print(f"error: {f}", file=sys.stderr)
    return 1 if failures else 0


def main(invariants=None, description=__doc__):
    """Runs one gate from the command line; returns the exit status.

    `invariants(rows)` returns the failures of the bench's own claims,
    checked on the CURRENT report so a baseline refresh cannot launder
    them away.
    """
    parser = argparse.ArgumentParser(
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max relative deviation per metric "
                             "(default 0.10)")
    args = parser.parse_args()
    baseline_name = os.path.basename(args.baseline)

    cur = load(args.current)
    failures, missing, unexpected = diff(
        load(args.baseline), cur, args.tolerance, baseline_name)
    if invariants is not None:
        failures.extend(invariants(cur))

    status = verdict(failures, missing, unexpected)
    if status == 0:
        print(f"{baseline_name}: all metrics within {args.tolerance:.0%} of "
              f"baseline" + ("; invariants passed" if invariants else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
