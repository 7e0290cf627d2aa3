// CompletionQueue: bounded CQE queue with verbs overflow semantics — if the
// application lets a CQ fill up, the CQ enters an error state and every QP
// bound to it is torn down. (This failure mode is why KafkaDirect's push
// replication needs credit-based flow control, §4.3.2.)
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "sim/awaitable.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "rdma/verbs.h"

namespace kafkadirect {
namespace rdma {

class QueuePair;

class CompletionQueue
    : public std::enable_shared_from_this<CompletionQueue> {
 public:
  CompletionQueue(sim::Simulator& sim, int capacity)
      : sim_(sim), capacity_(capacity), arrival_(sim) {}
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Non-blocking poll; nullopt when empty.
  std::optional<WorkCompletion> Poll() {
    if (cqes_.empty()) return std::nullopt;
    WorkCompletion wc = cqes_.front();
    cqes_.pop_front();
    return wc;
  }

  /// Non-blocking batch poll (ibv_poll_cq with num_entries > 1): drains up
  /// to `max_n` CQEs into `out`, preserving delivery order. Returns the
  /// number drained. Feeding one wakeup with a whole batch is what lets an
  /// event loop scale past one simulator event per completion.
  size_t PollBatch(WorkCompletion* out, size_t max_n) {
    size_t n = 0;
    while (n < max_n && !cqes_.empty()) {
      out[n++] = cqes_.front();
      cqes_.pop_front();
    }
    if (n > 0 && poll_batch_hist_ != nullptr) {
      poll_batch_hist_->Add(static_cast<int64_t>(n));
    }
    return n;
  }

  /// co_await cq.NextBatch(out, max_n) — blocks until at least one CQE is
  /// available, then drains up to `max_n` of them. Returns 0 only when the
  /// CQ is in the error state.
  sim::Co<size_t> NextBatch(WorkCompletion* out, size_t max_n) {
    auto self = shared_from_this();
    while (self->cqes_.empty() && !self->error_) {
      self->arrival_.Reset();
      co_await self->arrival_.Wait();
    }
    co_return self->PollBatch(out, max_n);
  }

  /// co_await cq.Next() — blocks until a CQE is available (or the CQ is in
  /// error state, in which case nullopt is returned). The CQ keeps itself
  /// alive while a waiter is suspended.
  sim::Co<std::optional<WorkCompletion>> Next() {
    auto self = shared_from_this();
    while (self->cqes_.empty() && !self->error_) {
      self->arrival_.Reset();
      co_await self->arrival_.Wait();
    }
    co_return self->Poll();
  }

  /// Delivers a CQE (called by the RNIC model). Overflow trips the error
  /// state and kills every attached QP.
  void Push(const WorkCompletion& wc);

  /// Administrative teardown (coroutine-aware shutdown): moves the CQ to
  /// the error state and wakes any parked Next/NextBatch waiter so its
  /// owning poll loop drains the remaining CQEs and runs to completion
  /// instead of leaking a suspended frame. Does NOT tear down attached
  /// QPs — disconnect those first.
  void Shutdown() {
    error_ = true;
    arrival_.Pulse();
  }

  void AttachQp(QueuePair* qp) { qps_.push_back(qp); }
  void DetachQp(QueuePair* qp);

  /// Optional depth gauge (typically the node-wide CQ high-water mark);
  /// sampled on every Push.
  void set_depth_gauge(obs::Gauge* gauge) { depth_gauge_ = gauge; }

  /// Optional histogram of non-empty PollBatch drain sizes.
  void set_poll_batch_hist(obs::LogLinearHistogram* hist) {
    poll_batch_hist_ = hist;
  }

  bool in_error() const { return error_; }
  size_t depth() const { return cqes_.size(); }
  int capacity() const { return capacity_; }
  uint64_t total_completions() const { return total_; }

 private:
  sim::Simulator& sim_;
  int capacity_;
  std::deque<WorkCompletion> cqes_;
  sim::Event arrival_;
  std::vector<QueuePair*> qps_;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::LogLinearHistogram* poll_batch_hist_ = nullptr;
  bool error_ = false;
  uint64_t total_ = 0;
};

}  // namespace rdma
}  // namespace kafkadirect
