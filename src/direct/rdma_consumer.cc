#include "direct/rdma_consumer.h"

#include <algorithm>
#include <cstring>

#include "sim/awaitable.h"

namespace kafkadirect {
namespace kd {

using kafka::ErrorCode;
using kafka::OwnedRecord;
using kafka::RecordBatchView;

RdmaConsumer::RdmaConsumer(sim::Simulator& sim, net::Fabric& fabric,
                           tcpnet::Network& tcp, net::NodeId node,
                           RdmaConsumerConfig config)
    : sim_(sim), fabric_(fabric), tcp_(tcp), node_(node), config_(config),
      rnic_(sim, fabric, node),
      slot_shadow_(ConsumerSession::kNumSlots * ConsumerSession::kSlotSize,
                   0) {}

RdmaConsumer::~RdmaConsumer() = default;

void RdmaConsumer::Close() {
  if (qp_ != nullptr) qp_->Disconnect();
  // Wake any coroutine parked on the CQ (ring-consume pollers) so its
  // frame completes instead of leaking (coroutine-aware teardown, §14).
  if (cq_ != nullptr) cq_->Shutdown();
  if (ctrl_ != nullptr) ctrl_->Close();
}

sim::Co<Status> RdmaConsumer::Connect(KafkaDirectBroker* leader) {
  leader_ = leader;
  auto ctrl_or =
      co_await tcp_.Connect(node_, leader->node(), kafka::kKafkaPort);
  if (!ctrl_or.ok()) co_return ctrl_or.status();
  ctrl_ = ctrl_or.value();
  cq_ = rnic_.CreateCq();
  qp_ = rnic_.CreateQp(cq_, cq_);
  auto broker_qp = co_await leader->AcceptRdma(qp_);
  if (!broker_qp.ok()) co_return broker_qp.status();
  broker_qp_num_ = broker_qp.value()->qp_num();
  co_return Status::OK();
}

sim::Co<Status> RdmaConsumer::SubscribeImpl(kafka::TopicPartitionId tp,
                                            int64_t offset) {
  auto sub = std::make_unique<Subscription>();
  sub->tp = tp;
  sub->next_offset = offset;
  Subscription* raw = sub.get();
  subs_[tp] = std::move(sub);
  if (config_.ring_consume) {
    co_return co_await RequestRingAccess(raw, offset);
  }
  co_return co_await RequestAccess(raw, offset,
                                   /*unregister_current=*/false);
}

sim::Co<Status> RdmaConsumer::ResubscribeImpl(KafkaDirectBroker* leader,
                                              kafka::TopicPartitionId tp,
                                              int64_t offset) {
  subs_.erase(tp);
  if (leader != leader_) {
    // Leader moved: the old transport (QP, control channel, slot region,
    // one-sided commit targets) is useless against the new broker. Tear
    // everything down and rebuild; any other subscriptions must be
    // re-granted by their owners the same way.
    Close();
    qp_ = nullptr;
    cq_ = nullptr;
    ctrl_ = nullptr;
    slot_region_addr_ = 0;
    slot_rkey_ = 0;
    subs_.clear();
    commit_targets_.clear();
    Status cs = co_await Connect(leader);
    if (!cs.ok()) co_return cs;
  }
  co_return co_await SubscribeImpl(tp, offset);
}

sim::Co<Status> RdmaConsumer::RequestRingAccess(Subscription* sub,
                                                int64_t offset) {
  sub->ring = true;
  sub->ring_buf.assign(config_.ring_capacity, 0);
  sub->tail_word.assign(8, 0);
  // Register the ring and the 8-byte tail word for broker writes
  // (mmap + ibv_reg_mr, one-time).
  co_await sim::Delay(sim_, rnic_.RegistrationCost(sub->ring_buf.size()) +
                                rnic_.RegistrationCost(8));
  auto ring_mr = rnic_.RegisterMemory(sub->ring_buf.data(),
                                      sub->ring_buf.size(),
                                      rdma::kAccessRemoteWrite);
  if (!ring_mr.ok()) co_return ring_mr.status();
  sub->ring_mr = ring_mr.value();
  auto tail_mr = rnic_.RegisterMemory(sub->tail_word.data(), 8,
                                      rdma::kAccessRemoteWrite);
  if (!tail_mr.ok()) co_return tail_mr.status();
  sub->tail_mr = tail_mr.value();

  kafka::RdmaRingConsumeAccessRequest req;
  req.tp = sub->tp;
  req.offset = offset;
  req.broker_qp = broker_qp_num_;
  req.ring_addr = sub->ring_mr->addr();
  req.ring_rkey = sub->ring_mr->rkey();
  req.ring_capacity = sub->ring_buf.size();
  req.tail_addr = sub->tail_mr->addr();
  req.tail_rkey = sub->tail_mr->rkey();
  kafka::RdmaRingConsumeAccessResponse resp;
  KD_CO_RETURN_IF_ERROR(co_await Call(*ctrl_, req, &resp));
  if (resp.error != ErrorCode::kNone) {
    co_return Status::PermissionDenied(
        std::string("RDMA ring consume access denied: ") +
        ErrorCodeName(resp.error));
  }
  sub->grant_ref = resp.grant_ref;
  sub->broker_head_addr = resp.head_addr;
  sub->broker_head_rkey = resp.head_rkey;
  sub->partial.clear();
  co_return Status::OK();
}

sim::Co<Status> RdmaConsumer::RequestAccess(Subscription* sub, int64_t offset,
                                            bool unregister_current) {
  if (unregister_current) {
    // Tell the broker the fully-read file can be unregistered to reduce
    // its memory usage (§4.4.2).
    kafka::RdmaUnregisterRequest ureq;
    ureq.tp = sub->tp;
    ureq.file_ref = sub->file_ref;
    kafka::RdmaUnregisterResponse uresp;  // carries nothing to act on
    KD_CO_RETURN_IF_ERROR(co_await Call(*ctrl_, ureq, &uresp));
    file_switches_++;
  }
  kafka::RdmaConsumeAccessRequest req;
  req.tp = sub->tp;
  req.offset = offset;
  kafka::RdmaConsumeAccessResponse resp;
  KD_CO_RETURN_IF_ERROR(co_await Call(*ctrl_, req, &resp));
  if (resp.error != ErrorCode::kNone) {
    co_return Status::PermissionDenied(
        std::string("RDMA consume access denied: ") +
        ErrorCodeName(resp.error));
  }
  sub->file_ref = resp.file_ref;
  sub->file_addr = resp.addr;
  sub->file_rkey = resp.rkey;
  sub->read_pos = resp.start_pos;
  sub->last_readable = resp.last_readable;
  sub->is_mutable = resp.is_mutable;
  sub->slot_index = resp.is_mutable ? static_cast<int32_t>(resp.slot_index)
                                    : -1;
  sub->partial.clear();
  if (resp.is_mutable) {
    slot_region_addr_ = resp.slot_region_addr;
    slot_rkey_ = resp.slot_rkey;
  }
  co_return Status::OK();
}

sim::Co<Status> RdmaConsumer::EnableRdmaCommitImpl(
    kafka::TopicPartitionId tp, std::string group) {
  kafka::RdmaCommitAccessRequest req;
  req.tp = tp;
  req.group = group;
  kafka::RdmaCommitAccessResponse resp;
  KD_CO_RETURN_IF_ERROR(co_await Call(*ctrl_, req, &resp));
  if (resp.error != ErrorCode::kNone) {
    co_return Status::PermissionDenied("RDMA commit access denied");
  }
  CommitTarget target;
  target.addr = resp.slot_addr;
  target.rkey = resp.slot_rkey;
  target.staging.resize(8);
  commit_targets_[{tp, group}] = std::move(target);
  co_return Status::OK();
}

sim::Co<Status> RdmaConsumer::CommitOffsetRdmaImpl(kafka::TopicPartitionId tp,
                                                   std::string group,
                                                   int64_t offset) {
  auto it = commit_targets_.find({tp, group});
  if (it == commit_targets_.end()) {
    co_return Status::FailedPrecondition(
        "EnableRdmaCommit before CommitOffsetRdma");
  }
  CommitTarget& target = it->second;
  EncodeFixed64(target.staging.data(), static_cast<uint64_t>(offset));
  rdma::WorkRequest wr;
  wr.wr_id = next_wr_id_++;
  wr.opcode = rdma::Opcode::kWrite;
  wr.local_addr = target.staging.data();
  wr.length = 8;
  wr.remote_addr = target.addr;
  wr.rkey = target.rkey;
  KD_CO_RETURN_IF_ERROR(qp_->PostSend(wr));
  auto wc = co_await cq_->Next();
  co_await sim::Delay(sim_, fabric_.cost().cpu.poll_iteration_ns);
  if (!wc.has_value() || !wc->ok()) {
    co_return Status::Disconnected("RDMA commit failed");
  }
  rdma_commits_++;
  co_return Status::OK();
}

sim::Co<StatusOr<uint64_t>> RdmaConsumer::RdmaRead(uint64_t remote_addr,
                                                   uint32_t rkey,
                                                   uint8_t* dst,
                                                   uint32_t len) {
  rdma::WorkRequest wr;
  wr.wr_id = next_wr_id_++;
  wr.opcode = rdma::Opcode::kRead;
  wr.local_addr = dst;
  wr.length = len;
  wr.remote_addr = remote_addr;
  wr.rkey = rkey;
  KD_CO_RETURN_IF_ERROR(qp_->PostSend(wr));
  reads_issued_++;
  // The consumer issues reads one at a time and busy-polls its CQ.
  auto wc = co_await cq_->Next();
  co_await sim::Delay(sim_, fabric_.cost().cpu.poll_iteration_ns);
  if (!wc.has_value() || !wc->ok()) {
    co_return Status::Disconnected("RDMA read failed");
  }
  co_return static_cast<uint64_t>(wc->byte_len);
}

sim::Co<Status> RdmaConsumer::PollMetadata() {
  int32_t lo = -1, hi = -1;
  for (auto& [tp, sub] : subs_) {
    if (sub->slot_index < 0) continue;
    if (lo < 0 || sub->slot_index < lo) lo = sub->slot_index;
    if (sub->slot_index > hi) hi = sub->slot_index;
  }
  if (lo < 0) co_return Status::OK();  // no mutable files subscribed
  // One RDMA Read covering the smallest contiguous region that contains
  // every active slot (Fig. 9) — free slots in between are read too.
  uint32_t span = static_cast<uint32_t>(hi - lo + 1) *
                  ConsumerSession::kSlotSize;
  uint64_t base = slot_region_addr_ +
                  static_cast<uint64_t>(lo) * ConsumerSession::kSlotSize;
  auto read = co_await RdmaRead(
      base, slot_rkey_,
      slot_shadow_.data() + lo * ConsumerSession::kSlotSize, span);
  if (!read.ok()) co_return read.status();
  metadata_reads_++;
  for (auto& [tp, sub] : subs_) {
    if (sub->slot_index < 0) continue;
    const uint8_t* slot =
        slot_shadow_.data() + sub->slot_index * ConsumerSession::kSlotSize;
    uint64_t readable = SlotLastReadable(slot);
    if (readable > sub->last_readable) sub->last_readable = readable;
    sub->is_mutable = SlotMutable(slot);
  }
  co_return Status::OK();
}

Status RdmaConsumer::DrainPartial(Subscription* sub,
                                  std::vector<OwnedRecord>* out,
                                  sim::TimeNs* work_ns) {
  const CostModel& cm = fabric_.cost();
  while (true) {
    Slice buffered(sub->partial);
    auto size_or = RecordBatchView::PeekBatchSize(buffered);
    if (!size_or.ok()) break;  // size prefix incomplete
    if (size_or.value() > buffered.size()) break;  // batch incomplete
    // Integrity check of the fetched data (the RDMA consumer "must check
    // the integrity of the fetched data", §5.3).
    auto view_or = RecordBatchView::Parse(buffered);
    if (!view_or.ok()) return view_or.status();
    const RecordBatchView& view = view_or.value();
    *work_ns += cm.CrcCost(view.total_size());
    // SLO audit: tenant = batch producer_id, delay = consume virtual time
    // minus the record's produce timestamp. One lookup per batch.
    obs::TenantSlo* tenant =
        fabric_.obs().slo.Get(sub->tp.topic, view.producer_id());
    const sim::TimeNs now = sim_.Now();
    Status st = view.ForEach([&](const kafka::RecordView& r) {
      if (r.offset < sub->next_offset) return;  // prefix before position
      OwnedRecord rec;
      rec.offset = r.offset;
      rec.timestamp = r.timestamp;
      // The copy from the off-heap RDMA buffer into the Java-heap buffer
      // returned to the application (~2 us of the 4.2 us, §5.3).
      rec.key = r.key.ToString();
      rec.value = r.value.ToString();
      fetched_bytes_ += r.key.size() + r.value.size();
      tenant->Observe(now - r.timestamp, r.key.size() + r.value.size(), now);
      *work_ns += static_cast<sim::TimeNs>(
          cm.kafka.consumer_copy_ns_per_byte *
          static_cast<double>(r.key.size() + r.value.size()));
      out->push_back(std::move(rec));
    });
    if (!st.ok()) return st;
    sub->next_offset = std::max(sub->next_offset, view.last_offset() + 1);
    sub->partial.erase(sub->partial.begin(),
                       sub->partial.begin() + view.total_size());
  }
  return Status::OK();
}

sim::Co<StatusOr<std::vector<OwnedRecord>>> RdmaConsumer::PollImpl(
    kafka::TopicPartitionId tp) {
  auto it = subs_.find(tp);
  if (it == subs_.end()) {
    co_return Status::NotFound("not subscribed: " + tp.ToString());
  }
  Subscription* sub = it->second.get();
  if (sub->ring) co_return co_await PollRing(sub);
  const CostModel& cm = fabric_.cost();
  std::vector<OwnedRecord> out;
  sim::TimeNs work_ns = cm.kafka.rdma_consumer_api_ns;

  for (int round = 0; round < 1024 && out.empty(); round++) {
    uint64_t available = sub->last_readable - sub->read_pos;
    if (available == 0) {
      if (!sub->is_mutable) {
        // Sealed file fully consumed: exchange it for the next file.
        KD_CO_RETURN_IF_ERROR(co_await RequestAccess(
            sub, sub->next_offset, /*unregister_current=*/true));
        continue;
      }
      // Check for new records by reading the metadata slots — no broker
      // CPU involved (§4.4.2).
      KD_CO_RETURN_IF_ERROR(co_await PollMetadata());
      if (sub->last_readable == sub->read_pos) {
        if (!sub->is_mutable) continue;  // just sealed: switch files
        break;                           // genuinely nothing new
      }
      continue;
    }
    // Fixed fetch size by default; when a partial batch header is already
    // buffered, size the read to complete that batch (the adaptive scheme
    // §4.4.2 suggests for large records).
    uint64_t len = std::min<uint64_t>(config_.fetch_size, available);
    auto need_or = RecordBatchView::PeekBatchSize(Slice(sub->partial));
    if (need_or.ok() && need_or.value() > sub->partial.size()) {
      uint64_t remaining_batch = need_or.value() - sub->partial.size();
      len = std::min<uint64_t>(std::max<uint64_t>(len, remaining_batch),
                               available);
    }
    size_t old_size = sub->partial.size();
    sub->partial.resize(old_size + len);
    auto read = co_await RdmaRead(sub->file_addr + sub->read_pos,
                                  sub->file_rkey,
                                  sub->partial.data() + old_size,
                                  static_cast<uint32_t>(len));
    if (!read.ok()) co_return read.status();
    sub->read_pos += len;
    KD_CO_RETURN_IF_ERROR(DrainPartial(sub, &out, &work_ns));
  }
  if (!out.empty()) {
    fetched_records_ += out.size();
    co_await sim::Delay(sim_, work_ns);
  }
  co_return out;
}

sim::Co<StatusOr<std::vector<OwnedRecord>>> RdmaConsumer::PollRing(
    Subscription* sub) {
  const CostModel& cm = fabric_.cost();
  const uint64_t cap = sub->ring_buf.size();
  std::vector<OwnedRecord> out;
  sim::TimeNs work_ns = cm.kafka.rdma_consumer_api_ns;
  for (int round = 0; round < 1024 && out.empty(); round++) {
    // The tail word is RNIC-written; checking it is a local load.
    uint64_t tail = DecodeFixed64(sub->tail_word.data());
    if (tail == sub->consumed) {
      co_await sim::Delay(sim_, cm.cpu.poll_iteration_ns);
      tail = DecodeFixed64(sub->tail_word.data());
      if (tail == sub->consumed) break;  // genuinely nothing new
    }
    uint64_t n = tail - sub->consumed;
    size_t old_size = sub->partial.size();
    sub->partial.resize(old_size + n);
    // Drain the ring into the reassembly buffer (a wrap costs at most two
    // memcpys), then free the space with a one-sided head write-back.
    uint64_t off = sub->consumed % cap;
    uint64_t first = std::min(n, cap - off);
    std::memcpy(sub->partial.data() + old_size, sub->ring_buf.data() + off,
                first);
    if (n > first) {
      std::memcpy(sub->partial.data() + old_size + first,
                  sub->ring_buf.data(), n - first);
    }
    work_ns += static_cast<sim::TimeNs>(cm.kafka.consumer_copy_ns_per_byte *
                                        static_cast<double>(n));
    sub->consumed += n;
    // Report drained space before the unreported span can stall the
    // broker's pusher (at the latest after a quarter ring).
    if (sub->consumed - sub->head_written >=
        std::min<uint64_t>(config_.head_update_bytes, cap / 4)) {
      WriteRingHead(sub);
    }
    KD_CO_RETURN_IF_ERROR(DrainPartial(sub, &out, &work_ns));
  }
  if (!out.empty()) {
    fetched_records_ += out.size();
    co_await sim::Delay(sim_, work_ns);
  }
  co_return out;
}

void RdmaConsumer::WriteRingHead(Subscription* sub) {
  rdma::WorkRequest wr;
  wr.wr_id = next_wr_id_++;
  wr.opcode = rdma::Opcode::kWrite;
  wr.signaled = false;  // fire-and-forget; no CQE to drain
  wr.send_inline = true;
  EncodeFixed64(wr.inline_data, sub->consumed);
  wr.length = 8;
  wr.remote_addr = sub->broker_head_addr;
  wr.rkey = sub->broker_head_rkey;
  if (qp_->PostSend(wr).ok()) {
    sub->head_written = sub->consumed;
    ring_head_writes_++;
  }
}

}  // namespace kd
}  // namespace kafkadirect
