// ShardedSimulator tests (DESIGN.md §11):
//   - one-shard engine runs, parallel and merged, reproduce the golden
//     fingerprint constants bit-identically;
//   - a cross-shard workload produces the same per-shard fingerprints at
//     every thread count {1,2,4,8} and across seeds, parallel vs the
//     deterministic merged schedule, also with shard-local timers armed
//     and cancelled on every firing;
//   - mailbox stress: bursts overflowing a tiny SPSC ring (spill path),
//     randomized latencies, per-sender FIFO on a fixed-latency stream;
//   - lookahead clamping, Stop, RunUntil, and stats/obs export sanity.
#include "sim/sharded.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "fingerprint_workload.h"
#include "obs/metrics.h"
#include "obs/shard_metrics.h"

namespace kafkadirect {
namespace sim {
namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// ---------------------------------------------------------------------------
// Golden fingerprint on one shard
// ---------------------------------------------------------------------------

FingerprintResult RunGoldenOnEngine(bool deterministic, uint32_t threads) {
  ShardedSimulator engine(ShardedConfig{.num_shards = 1,
                                        .num_threads = threads,
                                        .lookahead_ns = 250,
                                        .deterministic = deterministic});
  FingerprintWorkload w{engine.shard(0)};
  SeedFingerprintRoots(w);
  engine.Run();
  return FingerprintResult{w.hash, engine.events_processed(),
                           engine.shard(0).Now()};
}

TEST(ShardedSimulatorTest, OneShardMergedReproducesGoldenFingerprint) {
  const FingerprintResult r = RunGoldenOnEngine(/*deterministic=*/true, 1);
  EXPECT_EQ(r.fingerprint, 0xC6C2C9E9913801F5ull);
  EXPECT_EQ(r.events, 2110u);
  EXPECT_EQ(r.end_time, 1113);
}

TEST(ShardedSimulatorTest, OneShardParallelReproducesGoldenFingerprint) {
  const FingerprintResult r = RunGoldenOnEngine(/*deterministic=*/false, 1);
  EXPECT_EQ(r.fingerprint, 0xC6C2C9E9913801F5ull);
  EXPECT_EQ(r.events, 2110u);
  EXPECT_EQ(r.end_time, 1113);
}

// ---------------------------------------------------------------------------
// Cross-shard fingerprint equality across thread counts and seeds
// ---------------------------------------------------------------------------

// Per-shard workload state: each shard folds its own FNV hash and consumes
// its own RNG, so the combined (shard-ordered) fingerprint is well-defined
// under parallel execution and comparable against the merged schedule.
struct ShardState {
  Simulator* sim = nullptr;
  Random rng{0};
  uint64_t hash = kFnvBasis;
  // With `timers` on, every firing also arms a timer on its own shard and
  // cancels one of the shard's 16 latest timers (from its own RNG, so the
  // cross-shard draws above are unchanged).
  bool timers = false;
  Random timer_rng{0};
  std::vector<EventId> armed{};
  uint64_t timers_fired = 0;
  uint64_t cancelled = 0;

  void Mix(uint64_t v) {
    hash ^= v;
    hash *= kFnvPrime;
  }
};

void ArmAndCancelTimer(ShardState* st, uint32_t s, uint64_t id) {
  ShardState& me = st[s];
  // Half inside the timing wheel's window, half in the overflow heap.
  const TimeNs delay = static_cast<TimeNs>(300 + me.timer_rng.Uniform(3000));
  me.armed.push_back(me.sim->Schedule(delay, [st, s, id] {
    ShardState& self = st[s];
    self.timers_fired++;
    self.Mix(~id);
    self.Mix(static_cast<uint64_t>(self.sim->Now()));
  }));
  const size_t window = std::min<size_t>(16, me.armed.size());
  const size_t victim = me.armed.size() - 1 - me.timer_rng.Uniform(window);
  if (me.sim->Cancel(me.armed[victim])) me.cancelled++;
}

void CrossFire(ShardState* st, uint32_t num_shards, uint32_t s, uint64_t id,
               int depth) {
  ShardState& me = st[s];
  me.Mix(id * 2654435761ull);
  me.Mix(static_cast<uint64_t>(me.sim->Now()));
  if (me.timers) ArmAndCancelTimer(st, s, id);
  if (depth >= 4) return;
  const int kids = static_cast<int>(me.rng.Uniform(3));
  for (int k = 0; k < kids; k++) {
    const uint64_t child = id * 4 + static_cast<uint64_t>(k) + 1;
    if (num_shards > 1 && me.rng.OneIn(4)) {
      const uint32_t dst = static_cast<uint32_t>(
          (s + 1 + me.rng.Uniform(num_shards - 1)) % num_shards);
      const TimeNs delay = static_cast<TimeNs>(100 + me.rng.Uniform(200));
      me.sim->ScheduleCross(dst, delay,
                            [st, num_shards, dst, child, depth] {
                              CrossFire(st, num_shards, dst, child,
                                        depth + 1);
                            });
    } else {
      const TimeNs delay = static_cast<TimeNs>(me.rng.Uniform(50));
      me.sim->Schedule(delay, [st, num_shards, s, child, depth] {
        CrossFire(st, num_shards, s, child, depth + 1);
      });
    }
  }
}

struct ShardedResult {
  uint64_t fingerprint = kFnvBasis;
  uint64_t events = 0;
  uint64_t cross = 0;
  uint64_t cancelled = 0;
};

ShardedResult RunShardedWorkload(uint32_t shards, uint32_t threads,
                                 bool deterministic, uint64_t seed,
                                 bool timers = false) {
  ShardedSimulator engine(ShardedConfig{.num_shards = shards,
                                        .num_threads = threads,
                                        .lookahead_ns = 100,
                                        .deterministic = deterministic,
                                        .mailbox_capacity = 64});
  std::vector<ShardState> st(shards);
  for (uint32_t s = 0; s < shards; s++) {
    st[s].sim = &engine.shard(s);
    st[s].rng = Random(seed * 997 + s);
    st[s].timers = timers;
    st[s].timer_rng = Random(seed * 31 + s);
  }
  Random root_rng(seed);
  for (uint32_t s = 0; s < shards; s++) {
    for (uint64_t i = 0; i < 24; i++) {
      const TimeNs at = static_cast<TimeNs>(root_rng.Uniform(500));
      const uint64_t id = (static_cast<uint64_t>(s) << 32) | (i * 131);
      ShardState* data = st.data();
      engine.shard(s).ScheduleAt(at, [data, shards, s, id] {
        CrossFire(data, shards, s, id, 0);
      });
    }
  }
  engine.Run();
  EXPECT_TRUE(engine.Idle());
  ShardedResult r;
  for (uint32_t s = 0; s < shards; s++) {
    r.fingerprint ^= st[s].hash;
    r.fingerprint *= kFnvPrime;
    r.cross += engine.shard_stats(s).cross_sent;
    r.cancelled += st[s].cancelled;
    // Every timer either ran or was cancelled, and none is left pending.
    EXPECT_EQ(st[s].timers_fired + st[s].cancelled, st[s].armed.size());
    EXPECT_EQ(engine.shard(s).pending_events(), 0u);
  }
  r.events = engine.events_processed();
  return r;
}

TEST(ShardedSimulatorTest, ParallelMatchesMergedAcrossThreadsAndSeeds) {
  for (uint64_t seed : {11ull, 42ull, 1337ull}) {
    const ShardedResult golden =
        RunShardedWorkload(8, 1, /*deterministic=*/true, seed);
    EXPECT_GT(golden.events, 0u);
    EXPECT_GT(golden.cross, 0u) << "workload never crossed shards";
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      const ShardedResult r =
          RunShardedWorkload(8, threads, /*deterministic=*/false, seed);
      EXPECT_EQ(r.fingerprint, golden.fingerprint)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(r.events, golden.events)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ShardedSimulatorTest, CancellationMatchesAcrossMergedAndParallel) {
  for (uint64_t seed : {5ull, 99ull}) {
    const ShardedResult golden = RunShardedWorkload(
        4, 1, /*deterministic=*/true, seed, /*timers=*/true);
    EXPECT_GT(golden.cancelled, 0u);
    EXPECT_GT(golden.cross, 0u) << "workload never crossed shards";
    for (uint32_t threads : {1u, 2u, 4u}) {
      const ShardedResult r = RunShardedWorkload(
          4, threads, /*deterministic=*/false, seed, /*timers=*/true);
      EXPECT_EQ(r.fingerprint, golden.fingerprint)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(r.events, golden.events)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(r.cancelled, golden.cancelled)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ShardedSimulatorTest, ParallelRunsAreBitIdenticalAcrossRepeats) {
  const ShardedResult a = RunShardedWorkload(4, 2, false, 7);
  const ShardedResult b = RunShardedWorkload(4, 2, false, 7);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events, b.events);
}

// ---------------------------------------------------------------------------
// Cross-shard mailbox stress
// ---------------------------------------------------------------------------

struct StressSide {
  Simulator* sim = nullptr;
  Random rng{0};
  uint64_t fifo_seq_sent = 0;
  uint64_t fifo_seq_seen = 0;   // last FIFO-stream seq delivered to us
  uint64_t received = 0;
  uint64_t order_hash = kFnvBasis;
  bool fifo_ok = true;
};

void StressRound(StressSide* sides, uint32_t me, int rounds_left) {
  StressSide& self = sides[me];
  const uint32_t peer = 1 - me;
  // A burst of 8 into a ring of capacity 4 forces the spill path.
  for (int b = 0; b < 8; b++) {
    // Fixed-latency stream: arrival times are strictly increasing per
    // sender, so delivery must preserve send order (per-sender FIFO).
    const uint64_t fs = self.fifo_seq_sent++;
    self.sim->ScheduleCross(peer, 100, [sides, peer, fs] {
      StressSide& dst = sides[peer];
      if (fs != dst.fifo_seq_seen++) dst.fifo_ok = false;
      dst.received++;
      dst.order_hash ^= fs * 2654435761ull;
      dst.order_hash *= kFnvPrime;
      dst.order_hash ^= static_cast<uint64_t>(dst.sim->Now());
      dst.order_hash *= kFnvPrime;
    });
    // Randomized-latency stream: exercises out-of-order arrivals and the
    // (dst_time, src, seq) drain merge.
    const TimeNs delay = static_cast<TimeNs>(100 + self.rng.Uniform(300));
    const uint64_t tag = self.rng.Next();
    self.sim->ScheduleCross(peer, delay, [sides, peer, tag] {
      StressSide& dst = sides[peer];
      dst.received++;
      dst.order_hash ^= tag;
      dst.order_hash *= kFnvPrime;
      dst.order_hash ^= static_cast<uint64_t>(dst.sim->Now());
      dst.order_hash *= kFnvPrime;
    });
  }
  if (rounds_left > 0) {
    const TimeNs next = static_cast<TimeNs>(20 + self.rng.Uniform(80));
    self.sim->Schedule(next, [sides, me, rounds_left] {
      StressRound(sides, me, rounds_left - 1);
    });
  }
}

struct StressResult {
  uint64_t hash0, hash1, received, sent, spills;
  bool fifo_ok;
};

StressResult RunMailboxStress(bool deterministic, uint32_t threads,
                              uint64_t seed) {
  ShardedSimulator engine(ShardedConfig{.num_shards = 2,
                                        .num_threads = threads,
                                        .lookahead_ns = 100,
                                        .deterministic = deterministic,
                                        .mailbox_capacity = 4});
  std::vector<StressSide> sides(2);
  for (uint32_t s = 0; s < 2; s++) {
    sides[s].sim = &engine.shard(s);
    sides[s].rng = Random(seed + s);
  }
  StressSide* data = sides.data();
  for (uint32_t s = 0; s < 2; s++) {
    engine.shard(s).Schedule(static_cast<TimeNs>(s), [data, s] {
      StressRound(data, s, 100);
    });
  }
  engine.Run();
  EXPECT_TRUE(engine.Idle());
  StressResult r{};
  r.hash0 = sides[0].order_hash;
  r.hash1 = sides[1].order_hash;
  r.received = sides[0].received + sides[1].received;
  r.fifo_ok = sides[0].fifo_ok && sides[1].fifo_ok;
  for (uint32_t s = 0; s < 2; s++) {
    r.sent += engine.shard_stats(s).cross_sent;
    r.spills += engine.shard_stats(s).mailbox_spills;
  }
  uint64_t recv_stat = 0;
  for (uint32_t s = 0; s < 2; s++) {
    recv_stat += engine.shard_stats(s).cross_received;
  }
  EXPECT_EQ(recv_stat, r.sent) << "mailbox lost or duplicated events";
  return r;
}

TEST(ShardedSimulatorTest, MailboxStressSpillsAndStaysFifoPerSender) {
  const StressResult par = RunMailboxStress(false, 2, 99);
  EXPECT_TRUE(par.fifo_ok);
  EXPECT_EQ(par.received, par.sent);
  // 8+8 sends per round into capacity-4 rings: the spill path must fire.
  EXPECT_GT(par.spills, 0u);
  const StressResult merged = RunMailboxStress(true, 1, 99);
  EXPECT_TRUE(merged.fifo_ok);
  EXPECT_EQ(par.hash0, merged.hash0);
  EXPECT_EQ(par.hash1, merged.hash1);
  EXPECT_EQ(par.received, merged.received);
}

// ---------------------------------------------------------------------------
// Lookahead clamping, Stop, RunUntil, accessors
// ---------------------------------------------------------------------------

TEST(ShardedSimulatorTest, CrossSendsBelowLookaheadAreClampedAndCounted) {
  ShardedSimulator engine(ShardedConfig{.num_shards = 2,
                                        .num_threads = 1,
                                        .lookahead_ns = 100});
  TimeNs fired_at = -1;
  engine.shard(0).ScheduleCross(1, 1, [&engine, &fired_at] {
    fired_at = engine.shard(1).Now();
  });
  engine.Run();
  EXPECT_EQ(fired_at, 100);  // delay 1 raised to the lookahead window
  EXPECT_EQ(engine.shard_stats(0).lookahead_clamps, 1u);
}

TEST(ShardedSimulatorTest, SameShardCrossSendIsAPlainSchedule) {
  ShardedSimulator engine(ShardedConfig{.num_shards = 2,
                                        .num_threads = 1,
                                        .lookahead_ns = 100});
  TimeNs fired_at = -1;
  engine.shard(0).ScheduleCross(0, 5, [&engine, &fired_at] {
    fired_at = engine.shard(0).Now();
  });
  engine.Run();
  EXPECT_EQ(fired_at, 5);  // no clamp: same-shard delivery needs no window
  EXPECT_EQ(engine.shard_stats(0).lookahead_clamps, 0u);
  EXPECT_EQ(engine.shard_stats(0).cross_sent, 0u);
}

TEST(ShardedSimulatorTest, StoppingOneShardStopsTheEngine) {
  for (bool deterministic : {false, true}) {
    ShardedSimulator engine(ShardedConfig{.num_shards = 2,
                                          .num_threads = 2,
                                          .lookahead_ns = 100,
                                          .deterministic = deterministic});
    int late_events = 0;
    engine.shard(0).Schedule(10, [&engine] { engine.shard(0).Stop(); });
    // Far beyond the stop epoch: must never run.
    engine.shard(1).Schedule(100000, [&late_events] { late_events++; });
    engine.Run();
    EXPECT_EQ(late_events, 0);
    EXPECT_FALSE(engine.Idle());
  }
}

TEST(ShardedSimulatorTest, RunUntilExecutesInclusiveBoundAndAdvancesClocks) {
  for (bool deterministic : {false, true}) {
    ShardedSimulator engine(ShardedConfig{.num_shards = 2,
                                          .num_threads = 2,
                                          .lookahead_ns = 100,
                                          .deterministic = deterministic});
    int ran = 0;
    for (TimeNs t = 100; t <= 1000; t += 100) {
      engine.shard(static_cast<uint32_t>(t / 100) % 2)
          .ScheduleAt(t, [&ran] { ran++; });
    }
    engine.RunUntil(500);
    EXPECT_EQ(ran, 5);
    EXPECT_EQ(engine.Now(), 500);
    EXPECT_EQ(engine.shard(0).Now(), 500);
    EXPECT_EQ(engine.shard(1).Now(), 500);
    engine.Run();
    EXPECT_EQ(ran, 10);
  }
}

TEST(ShardedSimulatorTest, RunUntilDoneStopsAtPredicate) {
  ShardedSimulator engine(ShardedConfig{.num_shards = 2,
                                        .num_threads = 1,
                                        .lookahead_ns = 100,
                                        .deterministic = true});
  int count = 0;
  for (TimeNs t = 10; t <= 100; t += 10) {
    engine.shard(0).ScheduleAt(t, [&count] { count++; });
  }
  engine.RunUntilDone([&count] { return count >= 3; }, 1000000);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(engine.Idle());
  engine.Run();
  EXPECT_EQ(count, 10);
}

TEST(ShardedSimulatorTest, ConfigClampsAndAccessors) {
  ShardedSimulator engine(ShardedConfig{.num_shards = 4,
                                        .num_threads = 16,
                                        .lookahead_ns = 250});
  EXPECT_EQ(engine.num_shards(), 4u);
  EXPECT_EQ(engine.num_threads(), 4u);  // clamped to shard count
  EXPECT_EQ(engine.lookahead(), 250);
  EXPECT_FALSE(engine.deterministic());
  EXPECT_TRUE(engine.Idle());
  EXPECT_EQ(engine.events_processed(), 0u);

  ShardedSimulator det(ShardedConfig{.num_shards = 4,
                                     .num_threads = 16,
                                     .deterministic = true});
  EXPECT_EQ(det.num_threads(), 1u);  // deterministic mode is 1 worker
}

TEST(ShardedSimulatorTest, EngineBackPointersAreWired) {
  ShardedSimulator engine(ShardedConfig{.num_shards = 3});
  for (uint32_t s = 0; s < 3; s++) {
    EXPECT_EQ(engine.shard(s).engine(), &engine);
    EXPECT_EQ(engine.shard(s).shard_id(), s);
  }
  Simulator standalone;
  EXPECT_EQ(standalone.engine(), nullptr);
}

TEST(ShardedSimulatorTest, ShardStatsExportToMetricsRegistry) {
  ShardedSimulator engine(ShardedConfig{.num_shards = 2,
                                        .num_threads = 2,
                                        .lookahead_ns = 100});
  engine.shard(0).ScheduleCross(1, 200, [] {});
  engine.shard(0).Schedule(1, [] {});
  obs::MetricsRegistry metrics;
  obs::ExportShardStats(metrics, engine);
  ASSERT_NE(metrics.FindGauge("sim.shard0.pending_events"), nullptr);
  EXPECT_EQ(metrics.FindGauge("sim.shard0.pending_events")->value(), 1);
  EXPECT_EQ(metrics.FindGauge("sim.shard1.pending_events")->value(), 1);
  engine.Run();
  obs::ExportShardStats(metrics, engine);
  EXPECT_EQ(metrics.FindGauge("sim.shard0.pending_events")->value(), 0);
  ASSERT_NE(metrics.FindGauge("sim.shard0.pending_events_peak"), nullptr);
  EXPECT_EQ(metrics.FindGauge("sim.shard0.pending_events_peak")->value(), 1);
  ASSERT_NE(metrics.FindGauge("sim.engine.num_shards"), nullptr);
  EXPECT_EQ(metrics.FindGauge("sim.engine.num_shards")->value(), 2);
  EXPECT_EQ(metrics.FindGauge("sim.engine.events")->value(), 2);
  ASSERT_NE(metrics.FindGauge("sim.shard1.events"), nullptr);
  EXPECT_EQ(metrics.FindGauge("sim.shard1.events")->value(), 1);
  // Re-export after another run overwrites (gauges, not counters).
  engine.shard(0).Schedule(1, [] {});
  engine.Run();
  obs::ExportShardStats(metrics, engine);
  EXPECT_EQ(metrics.FindGauge("sim.engine.events")->value(), 3);
}

TEST(ShardedSimulatorTest, ParallelEpochsAreAccounted) {
  ShardedSimulator engine(ShardedConfig{.num_shards = 2,
                                        .num_threads = 2,
                                        .lookahead_ns = 100});
  for (TimeNs t = 0; t < 1000; t += 50) {
    engine.shard(0).ScheduleAt(t, [] {});
    engine.shard(1).ScheduleAt(t, [] {});
  }
  engine.Run();
  EXPECT_GT(engine.epochs(), 1u);
  EXPECT_GT(engine.shard_stats(0).epochs_active, 0u);
  EXPECT_GT(engine.shard_stats(1).epochs_active, 0u);
}

}  // namespace
}  // namespace sim
}  // namespace kafkadirect
