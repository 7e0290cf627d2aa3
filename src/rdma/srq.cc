#include "rdma/srq.h"

namespace kafkadirect {
namespace rdma {

namespace {
uint32_t NextSrqNum() {
  static uint32_t next = 1;
  return next++;
}
}  // namespace

SharedReceiveQueue::SharedReceiveQueue(int max_wr,
                                       obs::MetricsRegistry& metrics)
    : max_wr_(max_wr),
      srq_num_(NextSrqNum()),
      posted_counter_(metrics.GetCounter("kd.rdma.srq.posted")),
      consumed_counter_(metrics.GetCounter("kd.rdma.srq.consumed")),
      depth_gauge_(metrics.GetGauge("kd.rdma.srq.depth")) {
  // Arena bound for the live monitor's srq_bounded watcher: depth may never
  // exceed the largest configured SRQ arena.
  obs::Gauge* cap = metrics.GetGauge("kd.rdma.srq.capacity");
  if (max_wr_ > cap->value()) cap->Set(max_wr_);
}

Status SharedReceiveQueue::PostRecv(uint64_t wr_id, uint8_t* buf,
                                    uint32_t len) {
  if (pool_.size() >= static_cast<size_t>(max_wr_)) {
    return Status::ResourceExhausted("SRQ PostRecv: pool full");
  }
  pool_.push_back(RecvRequest{wr_id, buf, len});
  total_posted_++;
  posted_counter_->Increment();
  depth_gauge_->Add(1);
  return Status::OK();
}

bool SharedReceiveQueue::TryTake(RecvRequest* out) {
  if (pool_.empty()) return false;
  *out = pool_.front();
  pool_.pop_front();
  total_consumed_++;
  consumed_counter_->Increment();
  depth_gauge_->Add(-1);
  return true;
}

}  // namespace rdma
}  // namespace kafkadirect
