#!/usr/bin/env python3
"""Compare a tbl_failover JSON report against the baseline.

The failover bench (DESIGN.md §15) is deterministic in virtual time, so
every reported metric — per-endpoint produce/retry/delivery counts,
delivery-delay percentiles through the leader kill, and the cluster-level
controller term / broker-death / leader-move counters — must match the
committed BENCH_failover.baseline.json within --tolerance (default 10%,
relative, either direction). Key-set drift fails in BOTH directions via
tools/bench_compare.py.

On top of the per-metric diff, the exactly-once claims are checked
directly on the CURRENT report (so a baseline refresh cannot launder them
away):

  - every failover/endpoint_* row must report lost == 0 and dup == 0 —
    no acknowledged record lost, nothing delivered twice, through the
    kill;
  - delivered == produced per endpoint;
  - failover/cluster must report broker_deaths >= 1 — a run where the
    kill never landed is not measuring failover.

Usage: tools/compare_failover.py BASELINE CURRENT [--tolerance 0.10]
"""

import sys

import bench_compare


def invariant_failures(rows):
    """The §15 exactly-once claims, checked on the CURRENT report."""
    failures = []
    endpoints = 0
    for name, metrics in sorted(rows.items()):
        if not name.startswith("failover/endpoint_"):
            continue
        endpoints += 1
        for key in ("lost", "dup"):
            if metrics.get(key, 0) != 0:
                failures.append(
                    f"exactly-once violated: {name} reports {key}="
                    f"{metrics[key]}")
        if metrics.get("delivered") != metrics.get("produced"):
            failures.append(
                f"delivery gap: {name} produced {metrics.get('produced')} "
                f"but delivered {metrics.get('delivered')}")
    if endpoints == 0:
        failures.append("no failover/endpoint_* rows in the current report")
    cluster = rows.get("failover/cluster", {})
    if cluster.get("broker_deaths", 0) < 1:
        failures.append(
            "failover/cluster reports no broker death — the kill never "
            "landed, the run measured nothing")
    return failures


if __name__ == "__main__":
    sys.exit(bench_compare.main(invariant_failures, __doc__))
