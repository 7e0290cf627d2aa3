#!/usr/bin/env python3
"""Compare a tbl_client_scaling JSON report against the baseline.

Semantics are those of tools/bench_compare.py: the bench is deterministic
in virtual time, so sim-derived metrics must match the committed baseline within
--tolerance (default 10%, relative, either direction). Zero-valued
baselines (e.g. `rejected`) are invariants — any nonzero current value
fails regardless of tolerance. Key-set drift fails in BOTH directions: a
benchmark or metric present in only one report (renamed, dropped, or
added without refreshing BENCH_client_scaling.baseline.json) is an error,
never silently skipped. Host-speed-dependent metrics (any key starting
with "host_") are excluded from gating.

On top of the per-metric diff, two memory-constancy group checks encode
the §14 scaling claims directly (so a baseline refresh cannot silently
launder them away):
  - all client_scaling_mux/* rows must report identical
    ctrl_recv_buf_bytes AND identical meta_peak_bytes — broker memory is
    O(active streams), independent of the logical client count;
  - all client_scaling/*/srq_on rows must report identical
    ctrl_recv_buf_bytes — the SRQ arena does not grow with producers.

Usage: tools/compare_client_scaling.py BASELINE CURRENT [--tolerance 0.10]
"""

import sys

import bench_compare


def constancy_failures(rows):
    """The §14 memory claims, checked on the CURRENT report."""
    failures = []
    for prefix, keys in (
            ("client_scaling_mux/", ("ctrl_recv_buf_bytes",
                                     "meta_peak_bytes")),
            ("client_scaling/", ("ctrl_recv_buf_bytes",))):
        for key in keys:
            values = {}
            for name, metrics in rows.items():
                if not name.startswith(prefix):
                    continue
                if prefix == "client_scaling/" and not name.endswith(
                        "/srq_on"):
                    continue
                if key in metrics:
                    values[name] = metrics[key]
            if len(set(values.values())) > 1:
                failures.append(
                    f"memory constancy violated: {key} differs across "
                    f"{prefix}* rows: {sorted(values.items())}")
    return failures


if __name__ == "__main__":
    sys.exit(bench_compare.main(constancy_failures, __doc__))
