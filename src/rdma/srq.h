// SharedReceiveQueue: ibv_srq analogue — one pool of posted receive
// buffers serving every QP attached to it, so a server's receive-buffer
// footprint is sized for aggregate inbound rate instead of per connection
// (the standard many-client RDMA scaling lever; see DESIGN.md §10).
//
// Semantics reproduced from verbs SRQs:
//  - any attached QP's inbound Send / WriteWithImm consumes the pool head;
//  - a drained SRQ surfaces the failure on the *receiver's* CQ (an RNR
//    error CQE on the receiving QP) while the initiator sees its WR
//    flushed — unlike the plain-RQ RNR path, where only the initiator
//    learns of the drop;
//  - QP teardown does NOT flush SRQ entries — they stay posted for the
//    surviving QPs (real SRQ recvs are only flushed when the SRQ itself
//    is destroyed).
#pragma once

#include <deque>

#include "common/status.h"
#include "obs/metrics.h"
#include "rdma/verbs.h"

namespace kafkadirect {
namespace rdma {

class SharedReceiveQueue {
 public:
  /// `metrics` registers the process-wide SRQ instruments
  /// (kd.rdma.srq.posted / .consumed / .depth); registration allocates
  /// once here, updates are pointer bumps.
  SharedReceiveQueue(int max_wr, obs::MetricsRegistry& metrics);
  SharedReceiveQueue(const SharedReceiveQueue&) = delete;
  SharedReceiveQueue& operator=(const SharedReceiveQueue&) = delete;

  /// Posts one receive buffer to the shared pool.
  Status PostRecv(uint64_t wr_id, uint8_t* buf, uint32_t len);

  /// Consumes the pool head (called by an attached QP's responder path).
  /// False when the pool is drained.
  bool TryTake(RecvRequest* out);

  size_t depth() const { return pool_.size(); }
  int max_wr() const { return max_wr_; }
  uint32_t srq_num() const { return srq_num_; }

  uint64_t posted() const { return total_posted_; }
  uint64_t consumed() const { return total_consumed_; }

 private:
  int max_wr_;
  uint32_t srq_num_;
  std::deque<RecvRequest> pool_;

  uint64_t total_posted_ = 0;
  uint64_t total_consumed_ = 0;

  obs::Counter* posted_counter_;
  obs::Counter* consumed_counter_;
  obs::Gauge* depth_gauge_;
};

}  // namespace rdma
}  // namespace kafkadirect
