#!/usr/bin/env python3
"""kdbench_smoke: runs every workload at 1/20 length and checks that

  - two runs with the same seed print identical virtual-time metrics;
  - a --trace run prints the same virtual-time metrics as an untraced one;
  - every metric BENCHMARK.json names is printed for every workload
    (obs.trace_overhead_frac is derived by run.py, so it is not looked for);
  - the workloads of BENCHMARK.json failed nothing: no produce error or
    admission refusal, and no record lost, duplicated, reordered or
    corrupted. The known-failure workloads (run.KNOWN_FAILURES) are held
    to the first three checks only.

Registered as a ctest test by CMakeLists.txt in a Release build; by hand:
    python3 bench/kdbench/smoke.py --binary <build>/kdbench \
        --benchmark BENCHMARK.json --workdir /tmp/kdbench-smoke
"""

import argparse
import json
import pathlib
import subprocess
import sys

from run import KNOWN_FAILURES, virtual

LENGTH = 0.05
SEED = 3


def run(binary, workload, out, trace_dir=None):
    cmd = [binary, f"--workload={workload}", f"--seed={SEED}",
           f"--length={LENGTH}", f"--json={out}"]
    if trace_dir is not None:
        cmd.append(f"--trace={trace_dir}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(out) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    work = pathlib.Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)

    listed = [w["name"] for w in spec["workloads"]]
    problems = []
    for w in listed + list(KNOWN_FAILURES):
        a = run(args.binary, w, work / f"{w}.a.json")
        if a["provenance"]["build_type"] != "Release":
            sys.exit("kdbench_smoke needs a Release build (host-time "
                     "metrics are withheld otherwise)")
        b = run(args.binary, w, work / f"{w}.b.json")
        t = run(args.binary, w, work / f"{w}.t.json", work)
        va, vb, vt = virtual(a), virtual(b), virtual(t)
        for name in sorted(va):
            if va[name] != vb.get(name):
                problems.append(f"{w}: {name} differs between two runs "
                                f"({va[name]} vs {vb.get(name)})")
            if name in vt and va[name] != vt[name]:
                problems.append(f"{w}: {name} differs when traced "
                                f"({va[name]} vs {vt[name]})")
        for m in spec["end_to_end"]:
            if m["name"] not in a["end_to_end"]:
                problems.append(f"{w}: end-to-end {m['name']} not printed")
        layers = set(a["per_layer"]) | set(t["per_layer"])
        for m in spec["per_layer"]:
            if m["name"] != "obs.trace_overhead_frac" and \
                    m["name"] not in layers:
                problems.append(f"{w}: per-layer {m['name']} not printed")
        if w in listed and a["failed"] != 0:
            problems.append(f"{w}: {a['failed']} failed: {a['failures']}")
        print(f"{w}: {len(va)} virtual-time metrics checked, "
              f"{a['attempted']} records, {a['failed']} failed")
    if problems:
        print("\n".join(problems))
        sys.exit(1)
    print("kdbench_smoke: ok")


if __name__ == "__main__":
    main()
