#!/usr/bin/env bash
# Builds the common + sim + obs + churn + failover test binaries under
# ThreadSanitizer (the "tsan" CMake preset) and runs them. No code in src/
# starts a thread: every broker, client and RNIC engine is a coroutine on
# one simulator. The pass stays so that a thread added later, and any
# state it shares with the simulator, is caught on the suites that drive
# the most of the system: the simulator core, the flight-recorder ring and
# monitor callbacks, §14 QP churn (connect/disconnect cycles, LRU
# eviction, reconnect racing in-flight acks) and §15 failover (broker
# kills mid-traffic, controller re-election, rebalance storms).
#
# Usage: tools/check_tsan.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build-tsan"

cmake --preset tsan -S "$ROOT" >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target common_test sim_test obs_test churn_test failover_test

export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1

"$BUILD_DIR/tests/common_test"
"$BUILD_DIR/tests/sim_test"
"$BUILD_DIR/tests/obs_test"
"$BUILD_DIR/tests/churn_test"
"$BUILD_DIR/tests/failover_test"

echo "tsan: all common + sim + obs + churn + failover tests passed"
