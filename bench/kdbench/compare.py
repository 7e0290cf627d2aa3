#!/usr/bin/env python3
"""Compares two sets of kdbench runs: a parent commit and a change.

    python3 bench/kdbench/compare.py <parent_runs_dir> <change_runs_dir>

Each directory holds the per-run reports run.py leaves in
$CARGO_TARGET_DIR/kdbench/runs (`<workload>.seed<n>.json`). For every
workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the share of pairs the change wins (runs paired by
seed, ties count for neither side), and a verdict:

  better      the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's quartile spread is wider than the bound, so a
              regression of that size could not be seen (unless every
              change run beats every parent run: better);
  same        none of the above.

It also prints each workload's failed share (failed / attempted records)
per side with a verdict of its own: worse when the change's share is
higher than the parent's at all (the bound is +0), better when lower. And
it checks that virtual-time metrics of runs with the same seed are
bit-identical, which holds whenever the change does not alter simulated
behaviour.

Workloads are those of BENCHMARK.json, then any other workload (such as
run.py's known-failure workloads) that both directories hold. Exit status
1 when any metric or failed share is worse.
"""

import contextlib
import io
import json
import pathlib
import re
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_compare  # noqa: E402  (tools/ is not a package)

RUN_FILE = re.compile(r"^(?P<workload>\w+)\.seed(?P<seed>\d+)\.json$")


def load_runs(directory):
    """{workload: {seed: report}} for every full-length run report."""
    runs = {}
    for path in sorted(pathlib.Path(directory).iterdir()):
        m = RUN_FILE.match(path.name)
        if not m:
            continue
        with open(path) as f:
            runs.setdefault(m["workload"], {})[int(m["seed"])] = json.load(f)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, pairs, better, bound):
    """The choosing-metrics rule for one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    limit = bound * abs(pm)
    if p3 - p1 > limit:
        all_better = min(sign * c for c in change) > max(sign * p for p in
                                                         parent)
        return share, "better" if all_better else "unresolved"
    if share >= 0.9 and gain > p3 - p1:
        return share, "better"
    if -gain > limit:
        return share, "worse"
    return share, "same"


def failed_share(runs):
    failed = sum(r["failed"] for r in runs.values())
    attempted = sum(r["attempted"] for r in runs.values())
    return failed, attempted, failed / attempted if attempted else 0.0


def virtual_rows(runs, workload):
    return {f"{workload}/seed{seed}": {
        name: m["value"] for name, m in report["end_to_end"].items()
        if m["clock"] == "virtual"} for seed, report in runs.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    parent, change = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    worse = []
    fmt = "{:<12} {:<18} {:>28} {:>28} {:>6} {:<10}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "wins", "verdict"))
    listed = [w["name"] for w in spec["workloads"]]
    extra = sorted((set(parent) & set(change)) - set(listed))
    for w in listed + extra:
        if w not in parent or w not in change:
            print(f"{w}: no runs on {'parent' if w not in parent else 'change'}"
                  " side")
            continue
        seeds = sorted(set(parent[w]) & set(change[w]))
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["end_to_end"][name]["value"] for r in parent[w].values()
                  if name in r["end_to_end"]]
            cv = [r["end_to_end"][name]["value"] for r in change[w].values()
                  if name in r["end_to_end"]]
            if not pv or not cv:
                print(fmt.format(w, name, "missing" if not pv else "",
                                 "missing" if not cv else "", "", "missing"))
                worse.append(f"{w}/{name} missing")
                continue
            pairs = [(parent[w][s]["end_to_end"][name]["value"],
                      change[w][s]["end_to_end"][name]["value"])
                     for s in seeds if name in parent[w][s]["end_to_end"]
                     and name in change[w][s]["end_to_end"]]
            share, v = verdict(pv, cv, pairs, m["better"], m["bound"])
            cells = []
            for vals in (pv, cv):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(fmt.format(w, name, cells[0], cells[1], f"{share:.0%}", v))
            if v == "worse":
                worse.append(f"{w}/{name}")
        pf, pa, ps = failed_share(parent[w])
        cf, ca, cs = failed_share(change[w])
        v = "worse" if cs > ps else "better" if cs < ps else "same"
        print(f"{w:<12} failed share: parent {pf}/{pa}, change {cf}/{ca} "
              f"{v}")
        if v == "worse":
            worse.append(f"{w}/failed")
        # Same seed, same simulated behaviour: virtual-time metrics must
        # match exactly (the tolerance-0 gate of tools/bench_compare.py).
        base = virtual_rows({s: parent[w][s] for s in seeds}, w)
        cur = virtual_rows({s: change[w][s] for s in seeds}, w)
        with contextlib.redirect_stdout(io.StringIO()):
            moved, _, _ = bench_compare.diff(base, cur, 0.0, "parent runs")
        moved_seeds = {re.match(r"[^/]+/(seed\d+)", f)[1] for f in moved}
        print(f"{w:<12} virtual-time metrics identical on "
              f"{len(seeds) - len(moved_seeds)}/{len(seeds)} shared seeds")
    if worse:
        print("worse: " + ", ".join(worse))
        sys.exit(1)


if __name__ == "__main__":
    main()
