#!/usr/bin/env bash
# Builds the common + sim + sharded-engine test binaries under
# ThreadSanitizer (the "tsan" CMake preset) and runs them. The per-shard
# simulator core is single-threaded by design; the sharded engine
# (sim/sharded.h) is where real threads enter — the epoch barrier, the
# shard-claim atomics, and the SPSC mailbox rings — so its tests (parallel
# fingerprint equality, mailbox stress, the two-thread ring stress) are the
# primary subjects of this pass, event cancellation on every shard
# included (CancellationMatchesAcrossMergedAndParallel). The obs suite
# rides along: the flight recorder borrows the SPSC ring layout and must
# stay clean under the same scrutiny even though the harness drives it
# from merged (single-threaded) mode. The §14 churn suite (QP
# connect/disconnect cycles, LRU eviction, reconnect racing in-flight
# acks) rides along for the same reason. The §15
# failover suite exercises the sharded engine under broker death: its
# shard-count determinism test runs the same leader-kill scenario on 1 and 4
# shards, so the epoch barrier and merge path see teardown-heavy traffic.
#
# Usage: tools/check_tsan.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build-tsan"

cmake --preset tsan -S "$ROOT" >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target common_test sim_test sharded_test obs_test churn_test failover_test

export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1

"$BUILD_DIR/tests/common_test"
"$BUILD_DIR/tests/sim_test"
"$BUILD_DIR/tests/sharded_test"
"$BUILD_DIR/tests/obs_test"
"$BUILD_DIR/tests/churn_test"
"$BUILD_DIR/tests/failover_test"

echo "tsan: all common + sim + sharded + obs + churn + failover tests passed"
