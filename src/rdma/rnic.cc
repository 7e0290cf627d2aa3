#include "rdma/rnic.h"

#include <algorithm>

#include "rdma/completion_queue.h"
#include "rdma/queue_pair.h"
#include "rdma/srq.h"

namespace kafkadirect {
namespace rdma {

StatusOr<MemoryRegionPtr> Rnic::RegisterMemory(uint8_t* base, uint64_t len,
                                               uint32_t access) {
  if (base == nullptr || len == 0) {
    return Status::InvalidArgument("RegisterMemory: empty region");
  }
  uint32_t rkey = next_rkey_++;
  auto mr = std::make_shared<MemoryRegion>(rkey, base, len, access);
  mrs_[rkey] = mr;
  registered_bytes_ += len;
  peak_registered_bytes_ = std::max(peak_registered_bytes_,
                                    registered_bytes_);
  return mr;
}

Status Rnic::DeregisterMemory(const MemoryRegionPtr& mr) {
  auto it = mrs_.find(mr->rkey());
  if (it == mrs_.end()) {
    return Status::NotFound("DeregisterMemory: unknown rkey");
  }
  it->second->Invalidate();
  registered_bytes_ -= it->second->length();
  mrs_.erase(it);
  return Status::OK();
}

MemoryRegion* Rnic::LookupMr(uint32_t rkey) {
  auto it = mrs_.find(rkey);
  if (it == mrs_.end()) return nullptr;
  return it->second.get();
}

std::shared_ptr<CompletionQueue> Rnic::CreateCq(int capacity) {
  if (capacity <= 0) capacity = fabric_.cost().rdma.default_cq_capacity;
  auto cq = std::make_shared<CompletionQueue>(sim_, capacity);
  // All CQs feed one process-wide depth gauge; its high-water mark is the
  // worst polling backlog any CQ saw.
  cq->set_depth_gauge(
      fabric_.obs().metrics.GetGauge("kd.rdma.cq.depth"));
  cq->set_poll_batch_hist(
      fabric_.obs().metrics.GetHistogram("kd.rdma.cq.poll_batch"));
  return cq;
}

std::shared_ptr<QueuePair> Rnic::CreateQp(
    std::shared_ptr<CompletionQueue> send_cq,
    std::shared_ptr<CompletionQueue> recv_cq) {
  return std::make_shared<QueuePair>(this, std::move(send_cq),
                                     std::move(recv_cq));
}

std::shared_ptr<QueuePair> Rnic::CreateQp(
    std::shared_ptr<CompletionQueue> send_cq,
    std::shared_ptr<CompletionQueue> recv_cq,
    std::shared_ptr<SharedReceiveQueue> srq) {
  return std::make_shared<QueuePair>(this, std::move(send_cq),
                                     std::move(recv_cq), std::move(srq));
}

std::shared_ptr<SharedReceiveQueue> Rnic::CreateSrq(int max_wr) {
  if (max_wr <= 0) max_wr = fabric_.cost().rdma.max_srq_wr;
  return std::make_shared<SharedReceiveQueue>(max_wr, fabric_.obs().metrics);
}

}  // namespace rdma
}  // namespace kafkadirect
