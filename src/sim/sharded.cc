#include "sim/sharded.h"

#include <algorithm>

namespace kafkadirect {
namespace sim {

namespace {

/// Saturating add on virtual time (horizons reach kNoEventTime).
TimeNs SatAdd(TimeNs a, TimeNs b) {
  TimeNs r;
  if (__builtin_add_overflow(a, b, &r)) return Simulator::kNoEventTime;
  return r;
}

/// Runs `body(shard, is_home)` once per shard that this worker wins for
/// phase `gen`: home shards (shard % workers == worker) first for
/// locality, then a stealing scan over everything still unclaimed.
/// Claim tags are strictly increasing per phase, so exactly one worker
/// wins each shard each phase — stealing moves *which thread* runs a
/// shard, never what the shard executes.
template <typename Body>
void ClaimShards(std::atomic<uint64_t>* claims, uint32_t num_shards,
                 uint32_t worker, uint32_t num_workers, uint64_t gen,
                 Body&& body) {
  for (uint32_t s = worker; s < num_shards; s += num_workers) {
    if (claims[s].exchange(gen, std::memory_order_acq_rel) < gen) {
      body(s, true);
    }
  }
  for (uint32_t s = 0; s < num_shards; s++) {
    if (claims[s].load(std::memory_order_acquire) >= gen) continue;
    if (claims[s].exchange(gen, std::memory_order_acq_rel) < gen) {
      body(s, false);
    }
  }
}

}  // namespace

ShardedSimulator::ShardedSimulator(ShardedConfig config)
    : config_(config),
      num_shards_(std::max<uint32_t>(1, config.num_shards)),
      num_workers_(config.deterministic
                       ? 1
                       : std::min(std::max<uint32_t>(1, config.num_threads),
                                  std::max<uint32_t>(1, config.num_shards))),
      lookahead_(std::max<TimeNs>(1, config.lookahead_ns)) {
  KD_CHECK(num_shards_ <= 256) << "mailbox matrix is O(shards^2)";
  shards_.reserve(num_shards_);
  for (uint32_t i = 0; i < num_shards_; i++) {
    auto sh = std::make_unique<Simulator>(/*register_log_clock=*/i == 0);
    sh->engine_ = this;
    sh->shard_id_ = i;
    shards_.push_back(std::move(sh));
  }
  mailboxes_.reserve(static_cast<size_t>(num_shards_) * num_shards_);
  for (size_t i = 0; i < static_cast<size_t>(num_shards_) * num_shards_;
       i++) {
    mailboxes_.push_back(std::make_unique<Mailbox>(config.mailbox_capacity));
  }
  stats_.resize(num_shards_);
  drain_scratch_.resize(num_shards_);
  next_time_.assign(num_shards_, Simulator::kNoEventTime);
  claims_ = std::make_unique<std::atomic<uint64_t>[]>(num_shards_);
  for (uint32_t i = 0; i < num_shards_; i++) claims_[i].store(0);
}

ShardedSimulator::~ShardedSimulator() = default;

TimeNs ShardedSimulator::Now() const {
  if (config_.deterministic) return merged_now_;
  TimeNs t = shards_[0]->Now();
  for (uint32_t s = 1; s < num_shards_; s++) {
    t = std::min(t, shards_[s]->Now());
  }
  return t;
}

bool ShardedSimulator::Idle() const {
  for (const auto& sh : shards_) {
    if (!sh->Idle()) return false;
  }
  for (const auto& mb : mailboxes_) {
    if (!mb->ring.empty()) return false;
    std::lock_guard<std::mutex> lock(mb->spill_mu);
    if (!mb->spill.empty()) return false;
  }
  return true;
}

uint64_t ShardedSimulator::events_processed() const {
  uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->events_processed();
  return total;
}

ShardStats ShardedSimulator::shard_stats(uint32_t i) const {
  KD_DCHECK(i < num_shards_);
  ShardStats s = stats_[i];
  s.events = shards_[i]->events_processed();
  s.pending_events = shards_[i]->pending_events();
  s.pending_events_peak = shards_[i]->pending_events_peak();
  return s;
}

void ShardedSimulator::CrossSend(uint32_t src, uint32_t dst, TimeNs delay,
                                 InlineFunction fn) {
  KD_DCHECK(src < num_shards_ && dst < num_shards_);
  if (delay < 0) delay = 0;
  if (dst == src) {
    shards_[src]->Schedule(delay, std::move(fn));
    return;
  }
  // Conservative correctness: a remote delivery may not land inside the
  // window the destination shard is concurrently executing.
  if (delay < lookahead_) {
    stats_[src].lookahead_clamps++;
    delay = lookahead_;
  }
  const TimeNs dst_time = SatAdd(shards_[src]->Now(), delay);
  if (!running_) {
    // Setup phase (no shard executing): schedule directly, same in both
    // modes so the schedule stays mode-independent.
    shards_[dst]->ScheduleAt(dst_time, std::move(fn));
    return;
  }
  CrossEvent ev{dst_time, stats_[src].cross_sent, std::move(fn)};
  Mailbox& mb = mailbox(src, dst);
  if (!mb.ring.TryPush(std::move(ev))) {
    std::lock_guard<std::mutex> lock(mb.spill_mu);
    mb.spill.push_back(std::move(ev));
    stats_[src].mailbox_spills++;
  }
  stats_[src].cross_sent++;
}

void ShardedSimulator::DrainInbox(uint32_t dst) {
  std::vector<DrainEntry>& pend = drain_scratch_[dst];
  pend.clear();
  for (uint32_t src = 0; src < num_shards_; src++) {
    if (src == dst) continue;
    Mailbox& mb = mailbox(src, dst);
    CrossEvent ev;
    while (mb.ring.TryPop(ev)) {
      pend.push_back(DrainEntry{ev.dst_time, src, ev.seq, std::move(ev.fn)});
    }
    std::lock_guard<std::mutex> lock(mb.spill_mu);
    for (CrossEvent& sp : mb.spill) {
      pend.push_back(DrainEntry{sp.dst_time, src, sp.seq, std::move(sp.fn)});
    }
    mb.spill.clear();
  }
  if (!pend.empty()) {
    ShardStats& st = stats_[dst];
    if (pend.size() > st.mailbox_max_depth) st.mailbox_max_depth = pend.size();
    st.cross_received += pend.size();
    // Fixed merge order — (arrival time, source shard, source sequence) —
    // makes delivery order independent of drain interleaving and thread
    // count; equal-arrival-time ties enter the destination wheel bucket
    // in exactly this order.
    std::sort(pend.begin(), pend.end(),
              [](const DrainEntry& a, const DrainEntry& b) {
                if (a.dst_time != b.dst_time) return a.dst_time < b.dst_time;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (DrainEntry& e : pend) {
      shards_[dst]->ScheduleAt(e.dst_time, std::move(e.fn));
    }
    pend.clear();
  }
  next_time_[dst] = shards_[dst]->NextEventTime();
}

void ShardedSimulator::ComputeEpochWindow() {
  phase_gen_++;
  TimeNs min_next = Simulator::kNoEventTime;
  for (uint32_t s = 0; s < num_shards_; s++) {
    min_next = std::min(min_next, next_time_[s]);
  }
  if (StopRequested() || min_next == Simulator::kNoEventTime ||
      min_next > run_limit_) {
    done_ = true;
    return;
  }
  epoch_end_ = std::min(SatAdd(min_next, lookahead_), SatAdd(run_limit_, 1));
  epochs_++;
}

void ShardedSimulator::WorkerLoop(uint32_t worker) {
  for (;;) {
    // Drain phase: deliver last epoch's cross-shard traffic and publish
    // per-shard next-event times. phase_gen_ is stable here — it is only
    // written inside barrier completions.
    ClaimShards(claims_.get(), num_shards_, worker, num_workers_, phase_gen_,
                [&](uint32_t s, bool) { DrainInbox(s); });
    barrier_.ArriveAndWait([this] { ComputeEpochWindow(); });
    if (done_) return;
    // Execute phase: each claimed shard runs every event inside the
    // epoch window [epoch_start, epoch_end_).
    ClaimShards(claims_.get(), num_shards_, worker, num_workers_, phase_gen_,
                [&](uint32_t s, bool home) {
                  ShardStats& st = stats_[s];
                  if (!home) st.steals++;
                  Simulator& sh = *shards_[s];
                  const uint64_t before = sh.events_processed_;
                  while (sh.ExecuteNextBefore(epoch_end_)) {
                  }
                  if (sh.events_processed_ != before) st.epochs_active++;
                  if (sh.stopped_) {
                    stop_.store(true, std::memory_order_relaxed);
                  }
                });
    barrier_.ArriveAndWait([this] { phase_gen_++; });
  }
}

void ShardedSimulator::RunParallel(TimeNs limit) {
  run_limit_ = limit;
  done_ = false;
  stop_.store(false, std::memory_order_relaxed);
  for (auto& sh : shards_) sh->stopped_ = false;
  running_ = true;
  barrier_.Reset(num_workers_);
  std::vector<std::thread> pool;
  pool.reserve(num_workers_ - 1);
  for (uint32_t w = 1; w < num_workers_; w++) {
    pool.emplace_back([this, w] { WorkerLoop(w); });
  }
  WorkerLoop(0);
  for (std::thread& t : pool) t.join();
  running_ = false;
  if (!StopRequested() && limit != Simulator::kNoEventTime) {
    for (auto& sh : shards_) sh->AdvanceTo(limit);
  }
}

void ShardedSimulator::RunMerged(TimeNs limit,
                                 const std::function<bool()>* done,
                                 TimeNs deadline) {
  run_limit_ = limit;
  stop_.store(false, std::memory_order_relaxed);
  for (auto& sh : shards_) sh->stopped_ = false;
  running_ = true;
  bool interrupted = false;
  std::vector<uint64_t> epoch_start_events(num_shards_);
  while (!interrupted) {
    for (uint32_t s = 0; s < num_shards_; s++) DrainInbox(s);
    TimeNs min_next = Simulator::kNoEventTime;
    for (uint32_t s = 0; s < num_shards_; s++) {
      min_next = std::min(min_next, next_time_[s]);
    }
    if (min_next == Simulator::kNoEventTime || min_next > limit) break;
    const TimeNs epoch_end =
        std::min(SatAdd(min_next, lookahead_), SatAdd(limit, 1));
    epochs_++;
    for (uint32_t s = 0; s < num_shards_; s++) {
      epoch_start_events[s] = shards_[s]->events_processed_;
    }
    // Merged schedule: always execute the globally earliest event,
    // (time, shard) ordered — the single-threaded golden order. Cross-
    // shard sends still buffer in the mailboxes until the epoch ends, so
    // each shard sees the exact event sequence parallel mode produces.
    for (;;) {
      TimeNs best = epoch_end;
      uint32_t bs = num_shards_;
      for (uint32_t s = 0; s < num_shards_; s++) {
        const TimeNs t = shards_[s]->NextEventTime();
        if (t < best) {
          best = t;
          bs = s;
        }
      }
      if (bs == num_shards_) break;
      if (done != nullptr && (*done)()) {
        interrupted = true;
        break;
      }
      if (best > deadline) {
        interrupted = true;
        break;
      }
      Simulator& sh = *shards_[bs];
      sh.ExecuteNextBefore(epoch_end);
      merged_now_ = sh.now_;
      if (sh.stopped_ || StopRequested()) {
        interrupted = true;
        break;
      }
    }
    for (uint32_t s = 0; s < num_shards_; s++) {
      if (shards_[s]->events_processed_ != epoch_start_events[s]) {
        stats_[s].epochs_active++;
      }
    }
  }
  running_ = false;
  if (!interrupted && limit != Simulator::kNoEventTime) {
    for (auto& sh : shards_) sh->AdvanceTo(limit);
    merged_now_ = limit;
  }
}

void ShardedSimulator::Run() {
  if (config_.deterministic) {
    RunMerged(Simulator::kNoEventTime, nullptr, Simulator::kNoEventTime);
  } else {
    RunParallel(Simulator::kNoEventTime);
  }
}

void ShardedSimulator::RunUntil(TimeNs time) {
  if (config_.deterministic) {
    RunMerged(time, nullptr, Simulator::kNoEventTime);
  } else {
    RunParallel(time);
  }
}

void ShardedSimulator::RunUntilDone(const std::function<bool()>& done,
                                    TimeNs deadline) {
  KD_CHECK(config_.deterministic)
      << "RunUntilDone needs deterministic mode: a done-predicate over "
         "cross-shard state has no defined evaluation point under "
         "parallel execution";
  RunMerged(Simulator::kNoEventTime, &done, deadline);
}

}  // namespace sim
}  // namespace kafkadirect
