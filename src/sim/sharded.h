// ShardedSimulator: parallel discrete-event execution with conservative
// lookahead (DESIGN.md §11).
//
// The simulator is sharded into per-domain event queues — one Simulator
// per shard, each keeping its own timing wheel and slot arena — executed
// by a pool of worker threads. Shards advance in lock-step epochs: every
// epoch covers the virtual-time window [T, T + lookahead), where the
// lookahead equals the minimum cross-shard link latency. Within an epoch
// each shard runs its events independently (no cross-shard event can
// land inside the window, so per-shard order is safe); at the epoch
// barrier, events sent between shards are transferred through per-
// (src,dst) SPSC mailbox rings — no locks on the hot path — merged in a
// fixed (arrival time, source shard, source sequence) order, and the
// next epoch starts at the new global-minimum event time.
//
// Work distribution is shard-granular stealing: each epoch, worker w
// first claims its home shards (shard % threads == w) and then steals
// any shard not yet claimed, so an imbalanced epoch does not idle the
// pool. Because claiming never changes *what* a shard executes — only
// which thread executes it — results are bit-identical for every thread
// count, 1 through N.
//
// Determinism mode (`ShardedConfig::deterministic`) executes the same
// sharded structure on one thread in global (time, shard) order — the
// merged schedule. Cross-shard traffic still flows through the mailboxes
// on the same epoch boundaries, so per-shard event order is identical to
// the parallel mode's; for a single shard the merged order is exactly
// the classic single-threaded Simulator order, which is what pins the
// engine to the golden fingerprint test.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/inline_function.h"
#include "common/logging.h"
#include "sim/simulator.h"
#include "sim/spsc_ring.h"

namespace kafkadirect {
namespace sim {

struct ShardedConfig {
  /// Event-queue domains. Model entities are pinned to shards (broker /
  /// fabric-link-group affinity); shard 0 is the default domain.
  uint32_t num_shards = 1;
  /// Worker threads for the parallel mode; clamped to num_shards.
  /// Ignored (single-threaded by construction) in deterministic mode.
  uint32_t num_threads = 1;
  /// Conservative synchronization window: must be <= the minimum
  /// cross-shard delivery latency (net::LinkModel::propagation_ns for
  /// fabric-connected domains). Cross-shard delays below this are
  /// clamped up and counted.
  TimeNs lookahead_ns = 250;
  /// Merge the sharded schedule back into a single-threaded global event
  /// order (verification mode; observationally identical per shard).
  bool deterministic = false;
  /// Slots per (src,dst) mailbox ring; overflow spills to a mutex-guarded
  /// side vector (cold path, counted in ShardStats::mailbox_spills).
  size_t mailbox_capacity = 1024;
};

/// Per-shard engine counters (exported to obs via obs/shard_metrics.h).
/// Cache-line sized so concurrent writers on different shards never share.
struct alignas(64) ShardStats {
  uint64_t events = 0;            // events executed on this shard
  uint64_t epochs_active = 0;     // epochs in which the shard ran >=1 event
  uint64_t steals = 0;            // epochs executed by a non-home worker
  uint64_t cross_sent = 0;        // mailbox events sent from this shard
  uint64_t cross_received = 0;    // mailbox events delivered to this shard
  uint64_t mailbox_spills = 0;    // sends that overflowed a ring (src side)
  uint64_t mailbox_max_depth = 0; // max inbox backlog seen at a drain
  uint64_t lookahead_clamps = 0;  // cross sends with delay < lookahead
  uint64_t pending_events = 0;    // live queued events (from the shard)
  uint64_t pending_events_peak = 0;
};

class ShardedSimulator {
 public:
  explicit ShardedSimulator(ShardedConfig config);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  uint32_t num_shards() const { return num_shards_; }
  /// Effective worker count (after clamping to the shard count).
  uint32_t num_threads() const { return num_workers_; }
  TimeNs lookahead() const { return lookahead_; }
  bool deterministic() const { return config_.deterministic; }

  /// The shard's event queue; model entities bound to shard i schedule
  /// here exactly as on a standalone Simulator.
  Simulator& shard(uint32_t i) {
    KD_DCHECK(i < num_shards_);
    return *shards_[i];
  }

  /// Conservative global virtual time: the merged clock in deterministic
  /// mode, the minimum shard clock otherwise. Valid between runs.
  TimeNs Now() const;

  /// Runs until every shard is idle and all mailboxes drained (or Stop).
  void Run();

  /// Runs events with timestamps <= `time`; shard clocks end at `time`
  /// when not stopped early.
  void RunUntil(TimeNs time);

  /// Deterministic mode only: processes events in merged order until
  /// `done()` returns true (checked before each event), the engine
  /// drains, Stop() is called, or the next event is past `deadline`.
  /// Mirrors Simulator::RunUntilDone so harness drivers can swap in the
  /// engine without behavioral change.
  void RunUntilDone(const std::function<bool()>& done, TimeNs deadline);

  /// Makes the current run return; parallel mode stops at the next epoch
  /// boundary, deterministic mode before the next event.
  void Stop() { stop_.store(true, std::memory_order_relaxed); }

  bool Idle() const;

  /// Sum of events executed across all shards.
  uint64_t events_processed() const;

  /// Epoch barriers crossed over the engine's lifetime.
  uint64_t epochs() const { return epochs_; }

  /// Snapshot of one shard's counters (events and pending events filled
  /// from the shard).
  ShardStats shard_stats(uint32_t i) const;

  /// Internal: mailbox send from shard `src` to shard `dst`, `delay` ns
  /// after src's Now(). Called via Simulator::ScheduleCross.
  void CrossSend(uint32_t src, uint32_t dst, TimeNs delay, InlineFunction fn);

 private:
  /// Mailbox payload. `seq` is the source shard's monotone cross-send
  /// counter: together with (dst_time, src) it makes the drain merge — and
  /// therefore the whole schedule — a fixed total order.
  struct CrossEvent {
    TimeNs dst_time = 0;
    uint64_t seq = 0;
    InlineFunction fn;
  };

  struct Mailbox {
    explicit Mailbox(size_t cap) : ring(cap) {}
    SpscRing<CrossEvent> ring;
    std::mutex spill_mu;                // cold path only
    std::vector<CrossEvent> spill;
  };

  struct DrainEntry {
    TimeNs dst_time;
    uint32_t src;
    uint64_t seq;
    InlineFunction fn;
  };

  /// Mutex+condvar epoch barrier; the last arriver runs `completion`
  /// under the lock (the coordinator step), so one barrier both
  /// synchronizes a phase and publishes the next epoch window. Blocking
  /// (not spinning) so oversubscribed hosts degrade gracefully.
  class EpochBarrier {
   public:
    void Reset(uint32_t parties) { parties_ = parties; }
    template <typename F>
    void ArriveAndWait(F&& completion) {
      std::unique_lock<std::mutex> lock(mu_);
      const uint64_t gen = generation_;
      if (++waiting_ == parties_) {
        completion();
        waiting_ = 0;
        generation_++;
        cv_.notify_all();
        return;
      }
      cv_.wait(lock, [&] { return generation_ != gen; });
    }
    void ArriveAndWait() {
      ArriveAndWait([] {});
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    uint32_t parties_ = 1;
    uint32_t waiting_ = 0;
    uint64_t generation_ = 0;
  };

  Mailbox& mailbox(uint32_t src, uint32_t dst) {
    return *mailboxes_[src * num_shards_ + dst];
  }

  bool StopRequested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Moves every pending mailbox event bound for `dst` into its event
  /// queue, merged by (dst_time, src, seq), and refreshes next_time_.
  void DrainInbox(uint32_t dst);

  /// Barrier completion: derives the next epoch window from the
  /// freshly-drained per-shard next-event times, or flags completion.
  void ComputeEpochWindow();

  void RunParallel(TimeNs limit);
  void WorkerLoop(uint32_t worker);
  void RunMerged(TimeNs limit, const std::function<bool()>* done,
                 TimeNs deadline);

  ShardedConfig config_;
  uint32_t num_shards_;
  uint32_t num_workers_;
  TimeNs lookahead_;

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;   // [src * N + dst]
  std::vector<ShardStats> stats_;
  std::vector<std::vector<DrainEntry>> drain_scratch_;  // per dst shard

  // True while a Run* is executing events; routes CrossSend through the
  // mailboxes instead of direct scheduling (setup-phase sends).
  bool running_ = false;
  std::atomic<bool> stop_{false};
  uint64_t epochs_ = 0;
  TimeNs merged_now_ = 0;

  // --- parallel-run shared state (written by barrier completions or
  // published across the barrier; workers read after ArriveAndWait) ---
  EpochBarrier barrier_;
  std::unique_ptr<std::atomic<uint64_t>[]> claims_;  // per-shard phase tag
  std::vector<TimeNs> next_time_;                    // per-shard next event
  uint64_t phase_gen_ = 1;
  TimeNs epoch_end_ = 0;
  TimeNs run_limit_ = Simulator::kNoEventTime;
  bool done_ = false;
};

}  // namespace sim
}  // namespace kafkadirect
