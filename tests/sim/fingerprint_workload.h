// The golden fingerprint workload, shared by the classic determinism test
// (sim/simulator_determinism_test.cc, which pins the constants) and the
// sharded-engine tests (sim/sharded_sim_test.cc, which require the engine
// to reproduce them bit-identically on one shard).
//
// The workload schedules a pseudo-random event tree with plenty of
// equal-timestamp ties and folds every (event id, firing time) pair into
// an FNV-1a hash as events execute; any dispatch change that reorders
// events — even among ties — changes the hash.
#pragma once

#include <cstdint>
#include <deque>

#include "common/random.h"
#include "sim/simulator.h"

namespace kafkadirect {
namespace sim {

struct FingerprintResult {
  uint64_t fingerprint;
  uint64_t events;
  TimeNs end_time;
};

struct FingerprintWorkload {
  Simulator& sim;
  Random rng{12345};
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis

  // Decoys: events scheduled among the real ones and cancelled before
  // they are due. One sits in each child's bucket just ahead of it and is
  // cancelled at once; one per firing lands in the overflow heap and is
  // cancelled eight firings later, or when the last real event fires.
  // They draw from their own RNG, so the golden constants hold with them
  // on exactly when cancelled entries leave the live pop order alone.
  bool decoys = false;
  Random decoy_rng{777};
  std::deque<EventId> far_decoys{};
  uint64_t real_pending = 0;
  uint64_t decoys_run = 0;

  void Mix(uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;  // FNV-1a prime
  }

  // Each firing folds (id, Now()) into the hash, then schedules up to two
  // children at nearby times. Child delays come from the shared RNG, so
  // they too depend on global execution order.
  void Fire(uint64_t id, int depth) {
    Mix(id * 2654435761ull);
    Mix(static_cast<uint64_t>(sim.Now()));
    real_pending--;
    if (depth < 3) {
      const int kids = static_cast<int>(rng.Uniform(3));
      for (int k = 0; k < kids; k++) {
        const uint64_t child = id * 4 + static_cast<uint64_t>(k) + 1;
        const TimeNs delay = static_cast<TimeNs>(rng.Uniform(50));
        const EventId near = decoys ? Decoy(delay) : EventId{};
        sim.Schedule(delay, [this, child, depth] { Fire(child, depth + 1); });
        real_pending++;
        sim.Cancel(near);
      }
    }
    if (!decoys) return;
    far_decoys.push_back(
        Decoy(2000 + static_cast<TimeNs>(decoy_rng.Uniform(3000))));
    while (!far_decoys.empty() &&
           (far_decoys.size() > 8 || real_pending == 0)) {
      sim.Cancel(far_decoys.front());
      far_decoys.pop_front();
    }
  }

  EventId Decoy(TimeNs delay) {
    return sim.Schedule(delay, [this] { decoys_run++; });
  }
};

/// Seeds the 512 golden roots into `w.sim` — crammed into [0, 1000) ns so
/// ties are common and FIFO ordering among equal timestamps is exercised
/// heavily. The caller runs the simulator (or its owning engine).
inline void SeedFingerprintRoots(FingerprintWorkload& w) {
  Random root_rng(98765);
  for (uint64_t i = 0; i < 512; i++) {
    const TimeNs at = static_cast<TimeNs>(root_rng.Uniform(1000));
    w.sim.Schedule(at, [&w, i] { w.Fire(i * 131, 0); });
    w.real_pending++;
  }
}

/// The classic single-simulator run the golden constants were captured on.
inline FingerprintResult RunFingerprintWorkload() {
  Simulator sim;
  FingerprintWorkload w{sim};
  SeedFingerprintRoots(w);
  sim.Run();
  return FingerprintResult{w.hash, sim.events_processed(), sim.Now()};
}

}  // namespace sim
}  // namespace kafkadirect
