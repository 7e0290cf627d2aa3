#!/usr/bin/env bash
# Builds the common + sim + obs test binaries under ASan/UBSan (the "asan"
# CMake preset) and runs them. These suites cover the allocation-free hot
# paths — InlineFunction storage/relocation, the vector-based event heap,
# BufferPool recycling, the SIMD CRC32C kernels, and the flight-recorder
# ring / monitor callbacks — which is exactly the code where a lifetime or
# aliasing bug would hide. The §14 churn suite rides along: QP
# connect/disconnect cycles, LRU eviction with transparent reconnect, and
# eviction racing in-flight acks are the paths most likely to leak a
# coroutine frame or touch a freed transport. The §15 failover suite rides
# along: broker kills mid-traffic, controller re-election, group-rebalance
# storms — teardown-heavy scenarios where a parked coroutine frame
# (purgatory waiter, ack reader) would leak if shutdown missed a wakeup.
# The purgatory pile-up regression rides along: 40,000 acks=all produces
# whose wakeups cancel their timeouts, so LSan shows that each cancelled
# timeout freed the waiter node it captured.
#
# Usage: tools/check_asan.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build-asan"

cmake --preset asan -S "$ROOT" >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target common_test sim_test obs_test churn_test failover_test purgatory_test

# No LSAN_OPTIONS / suppression file: deployment teardown is now
# coroutine-aware (Cluster::Shutdown walks brokers -> QPs/sockets ->
# channels and ~TestCluster drains the woken frames), so leak checking
# runs unsuppressed — any report is a real regression.
export ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1
export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1

"$BUILD_DIR/tests/common_test"
"$BUILD_DIR/tests/sim_test"
"$BUILD_DIR/tests/obs_test"
"$BUILD_DIR/tests/churn_test"
"$BUILD_DIR/tests/failover_test"
"$BUILD_DIR/tests/purgatory_test"

echo "asan/ubsan: all common + sim + obs + churn + failover + purgatory tests passed"
