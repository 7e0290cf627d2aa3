// Pins the simulator's scheduling order to a golden fingerprint.
//
// The workload (tests/sim/fingerprint_workload.h) schedules a pseudo-random
// event tree with plenty of equal-timestamp ties and folds every (event id,
// firing time) pair into an FNV-1a hash as events execute. The expected
// constants were captured from the original std::priority_queue<function>
// implementation, so any dispatch rewrite that reorders events — even among
// ties — fails here. This is what keeps all fig* experiment outputs
// bit-identical.
//
// Compile with -DKD_FINGERPRINT_MAIN for a standalone binary that prints
// the constants (used to capture the golden values).
#include "fingerprint_workload.h"

#include <cstdint>
#include <cstdio>

#ifndef KD_FINGERPRINT_MAIN
#include <gtest/gtest.h>
#endif

namespace kafkadirect {
namespace sim {
namespace {

#ifndef KD_FINGERPRINT_MAIN

// Golden values from the seed implementation (std::priority_queue of
// std::function entries), captured before the zero-alloc rewrite.
TEST(SimulatorDeterminismTest, SchedulingOrderFingerprintIsStable) {
  const FingerprintResult r = RunFingerprintWorkload();
  EXPECT_EQ(r.fingerprint, 0xC6C2C9E9913801F5ull);
  EXPECT_EQ(r.events, 2110u);
  EXPECT_EQ(r.end_time, 1113);
}

// Decoys scheduled among the real events and cancelled before they are
// due, in the real events' own wheel buckets and in the overflow heap
// across its compactions, must leave the live pop order, and with it the
// golden constants, untouched.
TEST(SimulatorDeterminismTest, CancelledDecoysLeaveFingerprintUnchanged) {
  Simulator sim;
  FingerprintWorkload w{sim};
  w.decoys = true;
  SeedFingerprintRoots(w);
  sim.Run();
  EXPECT_EQ(w.hash, 0xC6C2C9E9913801F5ull);
  EXPECT_EQ(sim.events_processed(), 2110u);
  EXPECT_EQ(sim.Now(), 1113);
  EXPECT_EQ(w.decoys_run, 0u);
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorDeterminismTest, RepeatedRunsAreBitIdentical) {
  const FingerprintResult a = RunFingerprintWorkload();
  const FingerprintResult b = RunFingerprintWorkload();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
}

#endif  // !KD_FINGERPRINT_MAIN

}  // namespace
}  // namespace sim
}  // namespace kafkadirect

#ifdef KD_FINGERPRINT_MAIN
int main() {
  const auto r = kafkadirect::sim::RunFingerprintWorkload();
  std::printf("fingerprint=0x%016llX events=%llu end_time=%lld\n",
              static_cast<unsigned long long>(r.fingerprint),
              static_cast<unsigned long long>(r.events),
              static_cast<long long>(r.end_time));
  return 0;
}
#endif
