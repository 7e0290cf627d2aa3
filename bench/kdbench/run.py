#!/usr/bin/env python3
"""Builds kdbench from the checkout it sits in and runs one workload.

    python3 bench/kdbench/run.py --workload kd_stream --seed 7 \
        --seconds 10 --trace 0

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under `kdbench/`; every run also leaves its full
report (provenance, every metric with its clock and sample count) in
`kdbench/runs/<workload>.seed<n>.json` there, which compare.py reads.

--seconds scales the workload's virtual run length (10 is the nominal
length, sized for about 10 s of host time per measured phase on a 4-core
x86 host).

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 prints
its per-layer metrics: counts and call timings from the same untraced run,
plus span metrics from a traced run over 1/20 of the length (a full-length
trace would hold tens of millions of spans). That traced run is paired with
an untraced run of the same length: their virtual-time metrics must match
exactly, and their host-time difference is obs.trace_overhead_frac. Traces
land in `kdbench/trace/`.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Any build failure, malformed run or missing metric exits non-zero without
printing it.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NOMINAL_SECONDS = 10.0
TRACE_FRACTION = 1.0 / 20
RUN_TIMEOUT_S = 170
# Workloads run.py also accepts that BENCHMARK.json does not list: each is
# a listed workload in the configuration that exposes one known failure of
# the seed commit (README, known baseline failures), so a fix shows up as a
# lower `failed` in compare.py.
KNOWN_FAILURES = ("kd_stream_shared4", "tcp_stream_pipelined",
                  "iot_burst_unpadded")


def fail(msg):
    print(f"kdbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no program sources under {ROOT / 'src'}")
    cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
           "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists():
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if subprocess.run(["cmake", "--build", str(build_dir), "--target",
                       "kdbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "kdbench"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(binary, workload, seed, length, json_path, trace_dir=None):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--length={length!r}", f"--json={json_path}",
           f"--commit={commit()}"]
    if trace_dir is not None:
        cmd.append(f"--trace={trace_dir}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} timed out")
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"{workload} seed {seed} exited {proc.returncode}")
    with open(json_path) as f:
        return json.load(f)


def virtual(report):
    """Every virtual-time metric of a run report, by section.name."""
    return {f"{sec}.{k}": v["value"] for sec in ("end_to_end", "per_layer")
            for k, v in report[sec].items() if v["clock"] == "virtual"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    listed = [w["name"] for w in spec["workloads"]]
    if args.workload not in listed + list(KNOWN_FAILURES):
        fail(f"unknown workload {args.workload}")
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build")) / "kdbench"
    build_dir = (ROOT / build_dir).resolve() if not build_dir.is_absolute() \
        else build_dir
    binary = build(build_dir)
    runs = build_dir / "runs"
    runs.mkdir(exist_ok=True)
    length = args.seconds / NOMINAL_SECONDS
    base = runs / f"{args.workload}.seed{args.seed}.json"
    report = run(binary, args.workload, args.seed, length, base)

    if args.trace == 0:
        names = [m["name"] for m in spec["end_to_end"]]
        available = report["end_to_end"]
    else:
        names = [m["name"] for m in spec["per_layer"]]
        available = dict(report["per_layer"])
        trace_dir = build_dir / "trace"
        trace_dir.mkdir(exist_ok=True)
        short = length * TRACE_FRACTION
        plain = run(binary, args.workload, args.seed, short,
                    runs / f"{args.workload}.seed{args.seed}.short.json")
        traced = run(binary, args.workload, args.seed, short,
                     runs / f"{args.workload}.seed{args.seed}.traced.json",
                     trace_dir)
        vp, vt = virtual(plain), virtual(traced)
        moved = sorted(k for k in vp if k in vt and vp[k] != vt[k])
        if moved:
            fail(f"tracing changed virtual-time metrics: {', '.join(moved)}")
        for name, m in traced["per_layer"].items():
            available.setdefault(name, m)
        overhead = traced["measured_host_s"] / plain["measured_host_s"] - 1.0
        available["obs.trace_overhead_frac"] = {"value": overhead,
                                                "unit": "ratio"}

    missing = [n for n in names if n not in available]
    if missing:
        fail(f"missing metrics: {', '.join(missing)}")
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": available[n]["value"],
                        "unit": available[n]["unit"]} for n in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
