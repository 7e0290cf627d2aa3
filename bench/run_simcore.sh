#!/usr/bin/env bash
# Runs the host-side simulator microbenchmarks and writes the JSON report
# to BENCH_simcore.json at the repo root. Compare against the committed
# BENCH_simcore.baseline.json (captured before the allocation-free hot-path
# work) to check for regressions.
#
# The report's "context" block records the run provenance: git commit
# and host core count.
#
# Usage: bench/run_simcore.sh [build_dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
BIN="$BUILD_DIR/bench/simcore_gbench"

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found; build first:" >&2
  echo "  cmake -B \"$BUILD_DIR\" -S \"$ROOT\" && cmake --build \"$BUILD_DIR\" -j" >&2
  exit 1
fi

GIT_COMMIT="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
HOST_CORES="$(nproc 2>/dev/null || echo unknown)"

"$BIN" \
  --benchmark_out="$ROOT/BENCH_simcore.json" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_context=git_commit="$GIT_COMMIT" \
  --benchmark_context=host_cores="$HOST_CORES"

echo "wrote $ROOT/BENCH_simcore.json"
