#include "kafka/broker.h"

#include <algorithm>

#include "common/logging.h"
#include "kafka/controller.h"
#include "kafka/record.h"

namespace kafkadirect {
namespace kafka {

namespace {

// Network processor threads framing requests into the queue (Fig. 2).
constexpr int kNumNetworkThreads = 3;
// Most bytes a follower's pull-replication fetch asks the leader for.
constexpr uint32_t kReplicaFetchMaxBytes = 4u << 20;

}  // namespace

Broker::Broker(sim::Simulator& sim, net::Fabric& fabric, tcpnet::Network& tcp,
               BrokerConfig config)
    : sim_(sim),
      fabric_(fabric),
      tcp_(tcp),
      config_(config),
      node_(fabric.AddNode("broker-" + std::to_string(config.id))),
      rnic_(sim, fabric, node_),
      requests_(sim),
      net_threads_(sim, kNumNetworkThreads) {
  // Observability registration happens once here; hot paths only bump the
  // resulting pointers (no allocation, preserving the zero-alloc loops).
  obs::Observability& ob = fabric.obs();
  const std::string prefix = "kd.broker." + std::to_string(config_.id) + ".";
  obs_.queue_depth = ob.metrics.GetGauge(prefix + "request_queue.depth");
  obs_.queue_wait_ns =
      ob.metrics.GetHistogram(prefix + "request_queue.wait_ns");
  obs_.produce_latency_ns =
      ob.metrics.GetHistogram(prefix + "api.produce.latency_ns");
  obs_.fetch_latency_ns =
      ob.metrics.GetHistogram(prefix + "api.fetch.latency_ns");
  obs_.hwm_updates = ob.metrics.GetCounter(prefix + "hwm.updates");
  obs_.isr_updates = ob.metrics.GetCounter(prefix + "isr.updates");
  obs_.produce_bytes = ob.metrics.GetCounter(prefix + "produce.bytes");
  obs_.produce_copied_bytes =
      ob.metrics.GetCounter(prefix + "produce.copied_bytes");
  obs_.fetch_bytes_returned =
      ob.metrics.GetCounter(prefix + "fetch.bytes_returned");
  obs_.hwm_offset = ob.metrics.GetGauge(prefix + "hwm.offset");
  flight_ = &ob.flight;
  tracer_ = &ob.tracer;
  if (tracer_->enabled()) {
    const std::string proc = "broker-" + std::to_string(config_.id);
    net_track_ = tracer_->DefineTrack(proc, "net");
    queue_track_ = tracer_->DefineTrack(proc, "request-queue");
    for (int i = 0; i < config_.num_api_workers; i++) {
      worker_tracks_.push_back(
          tracer_->DefineTrack(proc, "worker-" + std::to_string(i)));
    }
  } else {
    worker_tracks_.assign(config_.num_api_workers, 0);
  }
}

Broker::~Broker() = default;

Status Broker::Start() {
  if (started_) return Status::FailedPrecondition("broker already started");
  started_ = true;
  KD_ASSIGN_OR_RETURN(listener_, tcp_.Listen(node_, kKafkaPort));
  sim::Spawn(sim_, AcceptLoop(listener_));
  for (int i = 0; i < config_.num_api_workers; i++) {
    sim::Spawn(sim_, ApiWorkerLoop(i));
  }
  return Status::OK();
}

PartitionState* Broker::AddPartition(const TopicPartitionId& tp,
                                     int32_t leader_id,
                                     std::vector<int32_t> replicas) {
  auto ps = std::make_unique<PartitionState>(sim_, tp,
                                             config_.segment_capacity);
  ps->leader_id = leader_id;
  ps->is_leader = (leader_id == config_.id);
  ps->replicas = std::move(replicas);
  ps->isr = ps->replicas;  // every replica starts in sync (empty log)
  for (int32_t r : ps->replicas) {
    if (r != config_.id) ps->follower_leo[r] = 0;
  }
  if (config_.control_plane) {
    ps->leader_gauge = fabric_.obs().metrics.GetGauge(
        "kd.broker." + std::to_string(config_.id) + ".leader." +
        tp.ToString());
    ps->leader_gauge->Set(ps->is_leader ? 1 : 0);
  }
  PartitionState* raw = ps.get();
  partitions_[tp] = std::move(ps);
  if (cp_ != nullptr) cp_->SeedAssignment(tp, *raw);
  return raw;
}

void Broker::SetTopicMetadata(const std::string& topic,
                              std::vector<int32_t> leaders) {
  topic_metadata_[topic] = std::move(leaders);
}

void Broker::ServeListener(std::shared_ptr<net::StreamListener> listener) {
  served_listeners_.push_back(listener);
  sim::Spawn(sim_, AcceptLoop(std::move(listener)));
}

void Broker::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  // Control plane first: stops heartbeat/watchdog loops, drops peer
  // connections and drops any leadership this broker held (a dead broker
  // must not count toward cluster.single_leader_per_partition).
  if (cp_ != nullptr) cp_->Stop();
  if (config_.control_plane) {
    for (auto& [tp, ps] : partitions_) {
      ps->is_leader = false;
      if (ps->leader_gauge != nullptr) ps->leader_gauge->Set(0);
    }
  }
  // Stop accepting: AcceptLoop's pending Accept resolves with an error and
  // the loop finishes.
  if (listener_ != nullptr) listener_->Shutdown();
  for (auto& listener : served_listeners_) listener->Shutdown();
  // Close accepted connections: every parked ConnectionReader's Recv fails
  // and its frame unwinds (the socket Close also breaks the TCP pair's
  // mutual shared_ptr cycle).
  for (auto& weak : accepted_conns_) {
    if (auto conn = weak.lock()) conn->Close();
  }
  accepted_conns_.clear();
  // Wake purgatory waiters (RespondWhenCommitted, fetch long-poll): they
  // check shut_down_ and unwind instead of leaking parked frames.
  for (auto& [tp, ps] : partitions_) {
    ps->hwm_advanced.Pulse();
    ps->leo_advanced.Pulse();
  }
  // Wake parked API workers with nullopt.
  requests_.Close();
}

PartitionState* Broker::GetPartition(const TopicPartitionId& tp) {
  auto it = partitions_.find(tp);
  return it == partitions_.end() ? nullptr : it->second.get();
}

sim::Co<void> Broker::Work(sim::TimeNs ns) {
  worker_busy_ns_ += ns;
  co_await sim::Delay(sim_, ns);
}

sim::Co<void> Broker::AcceptLoop(
    std::shared_ptr<net::StreamListener> listener) {
  while (true) {
    auto conn = co_await listener->Accept();
    if (!conn.ok()) co_return;
    accepted_conns_.push_back(conn.value());
    sim::Spawn(sim_, ConnectionReader(std::move(conn).value()));
  }
}

sim::Co<void> Broker::ConnectionReader(net::MessageStreamPtr conn) {
  while (true) {
    auto frame = co_await conn->Recv();
    if (!frame.ok()) {
      conn->Close();
      co_return;
    }
    // A network processor thread frames the request and forwards it to the
    // shared request queue (paper step 1).
    uint64_t span = tracer_->AsyncBegin(net_track_, "net.receive");
    co_await net_threads_.Use(cost().kafka.net_frame_ns);
    Request req;
    req.conn = conn;
    req.frame = std::move(frame).value();
    EnqueueRequest(std::move(req));
    tracer_->AsyncEnd(net_track_, "net.receive", span);
  }
}

void Broker::EnqueueRequest(Request req) {
  if (requests_.closed()) return;  // late RDMA completions during shutdown
  req.enqueue_ns = sim_.Now();
  req.queue_span_id = tracer_->AsyncBegin(queue_track_, "queue.wait");
  requests_.Push(std::move(req));
  obs_.queue_depth->Set(static_cast<int64_t>(requests_.size()));
}

sim::Co<void> Broker::ApiWorkerLoop(int worker_index) {
  const obs::TrackId wt = worker_tracks_[worker_index];
  while (true) {
    bool idle = requests_.empty();
    auto req = co_await requests_.Pop();
    if (!req.has_value()) co_return;
    obs_.queue_depth->Set(static_cast<int64_t>(requests_.size()));
    obs_.queue_wait_ns->Add(sim_.Now() - req->enqueue_ns);
    tracer_->AsyncEnd(queue_track_, "queue.wait", req->queue_span_id);
    if (idle) {
      // Blocked worker must be woken by the enqueue, and the request is
      // handed across thread pools (paper §5.1: forwarding takes 11 us and
      // thread invocations dominate the RPC latency). Under sustained load
      // the queue stays hot and a dequeue costs ~1 us.
      co_await Work(cost().cpu.wakeup_ns + cost().cpu.handoff_ns);
    } else {
      co_await Work(1000);
    }
    // Handlers that need to open child spans (log.append) capture
    // dispatch_track_ in their first statement, which runs synchronously
    // on co_await; it must be re-set before every dispatch.
    dispatch_track_ = wt;
    const sim::TimeNs dispatched_at = sim_.Now();
    if (req->conn == nullptr) {
      tracer_->Begin(wt, "api.rdma");
      co_await HandleExtendedRequest(std::move(*req));
      tracer_->End(wt);
      continue;
    }
    switch (PeekType(Slice(req->frame))) {
      case MsgType::kProduceRequest:
        tracer_->Begin(wt, "api.produce");
        co_await HandleProduce(std::move(*req));
        obs_.produce_latency_ns->Add(sim_.Now() - dispatched_at);
        tracer_->End(wt);
        break;
      case MsgType::kFetchRequest:
        tracer_->Begin(wt, "api.fetch");
        co_await HandleFetch(std::move(*req));
        obs_.fetch_latency_ns->Add(sim_.Now() - dispatched_at);
        tracer_->End(wt);
        break;
      case MsgType::kMetadataRequest:
        tracer_->Begin(wt, "api.metadata");
        co_await HandleMetadata(std::move(*req));
        tracer_->End(wt);
        break;
      case MsgType::kCommitOffsetRequest:
        tracer_->Begin(wt, "api.commit_offset");
        co_await HandleCommitOffset(std::move(*req));
        tracer_->End(wt);
        break;
      case MsgType::kFetchCommittedOffsetRequest:
        tracer_->Begin(wt, "api.offset_fetch");
        co_await HandleFetchCommittedOffset(std::move(*req));
        tracer_->End(wt);
        break;
      case MsgType::kControllerHeartbeatRequest:
      case MsgType::kLeaderAndIsrRequest:
      case MsgType::kLogInfoRequest:
      case MsgType::kJoinGroupRequest:
      case MsgType::kSyncGroupRequest:
      case MsgType::kGroupHeartbeatRequest:
      case MsgType::kLeaveGroupRequest:
        tracer_->Begin(wt, "api.control_plane");
        co_await HandleControlPlaneRequest(std::move(*req));
        tracer_->End(wt);
        break;
      default:
        tracer_->Begin(wt, "api.extended");
        co_await HandleExtendedRequest(std::move(*req));
        tracer_->End(wt);
        break;
    }
  }
}

void Broker::SendResponse(net::MessageStreamPtr conn,
                          std::vector<uint8_t> frame, bool zero_copy,
                          const char* span_name) {
  // Responses leave through the network-thread pool, not the API worker.
  auto send = [](Broker* self, net::MessageStreamPtr c,
                 std::vector<uint8_t> f, bool zc,
                 const char* name) -> sim::Co<void> {
    uint64_t span = self->tracer_->AsyncBegin(self->net_track_, name);
    co_await self->net_threads_.Use(self->cost().kafka.net_frame_ns);
    (void)co_await c->Send(std::move(f), zc);
    self->tracer_->AsyncEnd(self->net_track_, name, span);
  };
  sim::Spawn(sim_, send(this, std::move(conn), std::move(frame), zero_copy,
                        span_name));
}

sim::Co<void> Broker::HandleProduce(Request req) {
  // Runs synchronously until the first suspension, so this captures the
  // dispatching worker's track before any other worker can overwrite it.
  const obs::TrackId wt = dispatch_track_;
  stats_.produce_requests++;
  ProduceRequest preq;
  if (!Decode(Slice(req.frame), &preq, &buf_pool_).ok()) {
    SendResponse(req.conn, Encode(ProduceResponse{ErrorCode::kInvalidRequest,
                                                  -1},
                                  buf_pool_.Acquire()));
    co_return;
  }
  // The batch was copied out above; the request frame's capacity feeds the
  // next batch copy or response encode.
  buf_pool_.Release(std::move(req.frame));
  PartitionState* ps = GetPartition(preq.tp);
  if (ps == nullptr) {
    SendResponse(req.conn,
                 Encode(ProduceResponse{ErrorCode::kUnknownTopicOrPartition,
                                        -1},
                        buf_pool_.Acquire()));
    co_return;
  }
  if (!ps->is_leader) {
    SendResponse(req.conn, Encode(ProduceResponse{ErrorCode::kNotLeader, -1},
                                  buf_pool_.Acquire()));
    co_return;
  }
  // Fixed request-processing cost: decode, sanity checks, bookkeeping.
  co_await Work(cost().kafka.produce_process_ns);
  // Integrity verification (CRC32C over the batch) — real check, real cost.
  co_await Work(cost().CrcCost(preq.batch.size()));
  auto view_or = RecordBatchView::Parse(Slice(preq.batch));
  if (!view_or.ok()) {
    SendResponse(req.conn, Encode(ProduceResponse{ErrorCode::kCorruptMessage,
                                                  -1},
                                  buf_pool_.Acquire()));
    co_return;
  }
  uint32_t count = view_or.value().record_count();
  tracer_->Begin(wt, "log.append");
  auto base_or = co_await CommitBatch(ps, std::move(preq.batch),
                                      /*charge_copy=*/true);
  tracer_->End(wt);
  if (!base_or.ok()) {
    SendResponse(req.conn, Encode(ProduceResponse{ErrorCode::kInvalidRequest,
                                                  -1},
                                  buf_pool_.Acquire()));
    co_return;
  }
  int64_t base = base_or.value();
  if (preq.acks == 0) co_return;  // fire and forget
  int64_t required = base + count;
  if (preq.acks == -1 && ps->log.high_watermark() < required) {
    // Park in purgatory until fully replicated.
    sim::Spawn(sim_, RespondWhenCommitted(req.conn, ps, required, base));
    co_return;
  }
  SendResponse(req.conn, Encode(ProduceResponse{ErrorCode::kNone, base},
                                buf_pool_.Acquire()),
               /*zero_copy=*/false, "ack.send");
}

sim::Co<StatusOr<int64_t>> Broker::CommitBatch(PartitionState* ps,
                                               std::vector<uint8_t> batch,
                                               bool charge_copy) {
  // Each TP file is written by at most one API worker at a time (the
  // locking the paper points to in the Fig. 12 discussion).
  co_await ps->append_mu.Lock();
  int64_t base = ps->log.log_end_offset();
  SetBaseOffset(batch.data(), base);
  uint32_t count = DecodeFixed32(batch.data() + 20);
  if (charge_copy) {
    // The second TCP-path copy: network receive buffer -> file buffer.
    obs_.produce_copied_bytes->Increment(batch.size());
    co_await Work(static_cast<sim::TimeNs>(
        cost().kafka.produce_copy_ns_per_byte *
        static_cast<double>(batch.size())));
  }
  bool rolled = false;
  if (batch.size() > ps->log.head().remaining()) {
    ps->log.Roll();
    rolled = true;
  }
  uint64_t pos = ps->log.head().size();
  uint64_t len = batch.size();
  Status st = ps->log.Append(Slice(batch), count);
  ps->append_mu.Unlock();
  // Append copied the batch into the log segment; recycle the vector.
  buf_pool_.Release(std::move(batch));
  if (rolled) OnRolled(*ps);
  if (!st.ok()) co_return st;
  stats_.bytes_appended += len;
  obs_.produce_bytes->Increment(len);
  OnAppended(*ps, pos, len, base, count);
  ps->leo_advanced.Pulse();
  AdvanceHwm(ps);
  co_return base;
}

void Broker::AdvanceHwm(PartitionState* ps) {
  if (!ps->is_leader) return;
  int64_t hwm = ps->log.log_end_offset();
  for (const auto& [replica, leo] : ps->follower_leo) {
    // Control plane: only in-sync replicas gate the HWM — a dead or
    // lagging follower shrunk out of the ISR must not stall commits.
    if (config_.control_plane && !ps->InIsr(replica)) continue;
    hwm = std::min(hwm, leo);
  }
  if (hwm > ps->log.high_watermark()) {
    ps->log.SetHighWatermark(hwm);
    obs_.hwm_updates->Increment();
    obs_.hwm_offset->Set(hwm);
    flight_->Record(sim_.Now(), obs::FlightEventType::kHwmAdvance,
                    static_cast<uint32_t>(config_.id),
                    static_cast<uint32_t>(ps->tp.partition),
                    static_cast<uint64_t>(hwm));
    ps->hwm_advanced.Pulse();
    OnHwmAdvanced(*ps);
  }
}

sim::Co<void> Broker::RespondWhenCommitted(net::MessageStreamPtr conn,
                                           PartitionState* ps,
                                           int64_t required_offset,
                                           int64_t base_offset) {
  while (ps->log.high_watermark() < required_offset) {
    bool fired = co_await ps->hwm_advanced.WaitFor(30ll * 1000 * 1000 * 1000);
    if (shut_down_) co_return;  // dead broker: the conn is closed anyway
    if (!fired && ps->log.high_watermark() < required_offset) {
      SendResponse(conn, Encode(ProduceResponse{ErrorCode::kTimedOut, -1}));
      co_return;
    }
  }
  // Purgatory completion: wake + hand back to the response path.
  co_await Work(cost().cpu.wakeup_ns + cost().cpu.handoff_ns);
  SendResponse(conn, Encode(ProduceResponse{ErrorCode::kNone, base_offset},
                            buf_pool_.Acquire()),
               /*zero_copy=*/false, "ack.send");
}

sim::Co<void> Broker::HandleFetch(Request req) {
  stats_.fetch_requests++;
  FetchRequest freq;
  if (!Decode(Slice(req.frame), &freq).ok()) {
    SendResponse(req.conn, Encode(FetchResponse{ErrorCode::kInvalidRequest,
                                                0, 0, {}}));
    co_return;
  }
  buf_pool_.Release(std::move(req.frame));
  PartitionState* ps = GetPartition(freq.tp);
  if (ps == nullptr) {
    SendResponse(req.conn,
                 Encode(FetchResponse{ErrorCode::kUnknownTopicOrPartition,
                                      0, 0, {}}));
    co_return;
  }
  if (freq.is_replica) {
    // Freshness stamp for ISR expansion: only followers actually fetching
    // may re-enter the ISR (a dead follower's lag can read as zero on an
    // idle partition).
    if (config_.control_plane) {
      ps->follower_seen[freq.replica_id] = sim_.Now();
    }
    // The fetch offset doubles as the follower's log end offset.
    auto it = ps->follower_leo.find(freq.replica_id);
    if (it != ps->follower_leo.end() && freq.offset > it->second) {
      it->second = freq.offset;
      obs_.isr_updates->Increment();
      flight_->Record(sim_.Now(), obs::FlightEventType::kIsrUpdate,
                      static_cast<uint32_t>(config_.id),
                      static_cast<uint32_t>(freq.replica_id),
                      static_cast<uint64_t>(freq.offset));
      AdvanceHwm(ps);
    }
  } else if (!ps->is_leader) {
    SendResponse(req.conn,
                 Encode(FetchResponse{ErrorCode::kNotLeader, 0, 0, {}}));
    co_return;
  }
  co_await Work(cost().kafka.fetch_process_ns);
  int64_t limit = freq.is_replica ? ps->log.log_end_offset()
                                  : ps->log.high_watermark();
  if (freq.offset >= limit && freq.max_wait_ns > 0) {
    // Long poll: park without holding the API worker.
    sim::Spawn(sim_, ParkedFetch(req.conn, freq, ps));
    co_return;
  }
  co_await CompleteFetch(req.conn, freq, ps);
}

sim::Co<void> Broker::CompleteFetch(net::MessageStreamPtr conn,
                                    FetchRequest freq, PartitionState* ps) {
  int64_t limit = freq.is_replica ? ps->log.log_end_offset()
                                  : ps->log.high_watermark();
  auto data_or = ps->log.Read(freq.offset, freq.max_bytes, limit);
  FetchResponse resp;
  resp.high_watermark = ps->log.high_watermark();
  resp.log_end_offset = ps->log.log_end_offset();
  if (!data_or.ok()) {
    resp.error = ErrorCode::kOffsetOutOfRange;
    SendResponse(conn, Encode(resp));
    co_return;
  }
  resp.batches = std::move(data_or).value();
  if (resp.batches.empty()) {
    stats_.empty_fetch_responses++;
  }
  obs_.fetch_bytes_returned->Increment(resp.batches.size());
  // Data leaves via the sendfile path (no broker-side copy) — the original
  // Kafka optimization the paper credits in §5.2.
  std::vector<uint8_t> frame = Encode(resp, buf_pool_.Acquire());
  buf_pool_.Release(std::move(resp.batches));
  SendResponse(conn, std::move(frame), /*zero_copy=*/true);
  co_return;
}

sim::Co<void> Broker::ParkedFetch(net::MessageStreamPtr conn,
                                  FetchRequest freq, PartitionState* ps) {
  sim::TimeNs deadline = sim_.Now() + freq.max_wait_ns;
  while (true) {
    int64_t limit = freq.is_replica ? ps->log.log_end_offset()
                                    : ps->log.high_watermark();
    if (freq.offset < limit) break;
    sim::TimeNs remaining = deadline - sim_.Now();
    if (remaining <= 0) break;  // expire with an (empty) response
    sim::Event& ev = freq.is_replica ? ps->leo_advanced : ps->hwm_advanced;
    (void)co_await ev.WaitFor(remaining);
    if (shut_down_) co_return;  // dead broker: the conn is closed anyway
  }
  // Completing a parked fetch: the purgatory thread wakes and hands the
  // work back to the request pipeline.
  co_await Work(cost().cpu.wakeup_ns + cost().cpu.handoff_ns);
  co_await CompleteFetch(std::move(conn), freq, ps);
}

sim::Co<void> Broker::HandleMetadata(Request req) {
  MetadataRequest mreq;
  MetadataResponse resp;
  if (!Decode(Slice(req.frame), &mreq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
  } else {
    auto it = topic_metadata_.find(mreq.topic);
    if (it == topic_metadata_.end()) {
      resp.error = ErrorCode::kUnknownTopicOrPartition;
    } else {
      resp.num_partitions = static_cast<int32_t>(it->second.size());
      resp.leader_broker = it->second;
    }
  }
  SendResponse(req.conn, Encode(resp));
  co_return;
}

sim::Co<void> Broker::HandleCommitOffset(Request req) {
  CommitOffsetRequest creq;
  CommitOffsetResponse resp;
  if (!Decode(Slice(req.frame), &creq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
  } else {
    PartitionState* ps = GetPartition(creq.tp);
    if (ps == nullptr) {
      resp.error = ErrorCode::kUnknownTopicOrPartition;
    } else {
      co_await StoreCommittedOffset(ps, creq);
    }
  }
  SendResponse(req.conn, Encode(resp));
  co_return;
}

sim::Co<void> Broker::StoreCommittedOffset(PartitionState* ps,
                                           const CommitOffsetRequest& creq) {
  ps->committed_offsets[creq.group] = creq.offset;
  if (!config_.control_plane) co_return;
  // Cluster-wide per-(group, partition) gauge; Set() only, so a rebalanced
  // consumer committing below a previous generation trips the
  // group.offsets_monotonic_across_generations watcher.
  fabric_.obs()
      .metrics.GetGauge("kd.group." + creq.group + "." + creq.tp.ToString() +
                        ".committed.offset")
      ->Set(creq.offset);
  // Leaders forward the commit to every ISR follower before acking, so the
  // offset survives a leader kill and a rebalanced consumer can resume
  // exactly-once from the surviving replica.
  if (ps->is_leader && cp_ != nullptr) {
    std::vector<uint8_t> frame = Encode(creq);
    // Snapshot: ApplyLeaderAndIsr may reassign ps->isr while PeerRpc is
    // suspended, which would invalidate iterators into the live vector.
    const std::vector<int32_t> isr = ps->isr;
    for (int32_t r : isr) {
      if (r == config_.id) continue;
      (void)co_await cp_->PeerRpc(r, frame);  // best effort: dead follower
                                              // is on its way out of the ISR
    }
  }
  co_return;
}

sim::Co<void> Broker::HandleFetchCommittedOffset(Request req) {
  FetchCommittedOffsetRequest creq;
  FetchCommittedOffsetResponse resp;
  if (!Decode(Slice(req.frame), &creq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
  } else {
    PartitionState* ps = GetPartition(creq.tp);
    if (ps == nullptr) {
      resp.error = ErrorCode::kUnknownTopicOrPartition;
    } else {
      auto it = ps->committed_offsets.find(creq.group);
      resp.offset = it == ps->committed_offsets.end() ? -1 : it->second;
    }
  }
  SendResponse(req.conn, Encode(resp));
  co_return;
}

sim::Co<void> Broker::HandleExtendedRequest(Request req) {
  if (req.conn != nullptr) {
    SendResponse(req.conn, Encode(ProduceResponse{
                               ErrorCode::kInvalidRequest, -1}));
  }
  co_return;
}

void Broker::OnAppended(PartitionState&, uint64_t, uint64_t, int64_t,
                        uint32_t) {}
void Broker::OnHwmAdvanced(PartitionState&) {}
void Broker::OnRolled(PartitionState&) {}
void Broker::OnLeadershipChanged(PartitionState&, bool) {}

void Broker::StartControlPlane(std::vector<ControlPlanePeer> peers) {
  if (!config_.control_plane || cp_ != nullptr || !started_ || shut_down_) {
    return;
  }
  cp_ = std::make_unique<ControlPlane>(*this, std::move(peers));
  cp_->Start();
}

int32_t Broker::MetadataLeaderOf(const TopicPartitionId& tp) const {
  auto it = topic_metadata_.find(tp.topic);
  if (it == topic_metadata_.end()) return -1;
  if (tp.partition < 0 ||
      tp.partition >= static_cast<int32_t>(it->second.size())) {
    return -1;
  }
  return it->second[tp.partition];
}

void Broker::ApplyLeaderAndIsr(const LeaderAndIsrRequest& req) {
  PartitionState* ps = GetPartition(req.tp);
  if (ps != nullptr && req.leader_epoch < ps->leader_epoch) {
    return;  // fenced: stale install must not touch state or metadata
  }
  // Mirror into client-facing metadata so MetadataRequest (and the
  // cluster's dynamic leader lookup) see the move even on brokers not
  // hosting the partition. Runs after the epoch fence so a deposed
  // controller's late broadcast can't rewind routing to a dead leader.
  auto mit = topic_metadata_.find(req.tp.topic);
  if (mit != topic_metadata_.end() && req.tp.partition >= 0 &&
      req.tp.partition < static_cast<int32_t>(mit->second.size())) {
    mit->second[req.tp.partition] = req.leader_id;
  }
  if (ps == nullptr) return;
  const bool was_leader = ps->is_leader;
  const int32_t old_leader = ps->leader_id;
  const bool now_leader = (req.leader_id == config_.id);
  ps->leader_epoch = req.leader_epoch;
  ps->leader_id = req.leader_id;
  ps->isr = req.isr;
  if (!req.replicas.empty()) ps->replicas = req.replicas;
  ps->is_leader = now_leader;
  if (ps->leader_gauge != nullptr) ps->leader_gauge->Set(now_leader ? 1 : 0);
  if (now_leader) {
    // The ISR changed (or we were just promoted): recompute what counts
    // as committed. Promotion keeps follower progress conservative — the
    // new ISR reports in through replica fetches.
    AdvanceHwm(ps);
    if (!was_leader) OnLeadershipChanged(*ps, true);
  } else {
    if (was_leader) OnLeadershipChanged(*ps, false);
    // Follow the new leader: the fetcher toward the dead one exits on its
    // broken connection. Only spawn when leadership actually moved, so an
    // ISR-only update never doubles the fetcher.
    if (!shut_down_ && req.leader_id >= 0 && old_leader != req.leader_id &&
        req.leader_node != 0) {
      StartReplicaFetcher(req.tp,
                          static_cast<net::NodeId>(req.leader_node));
    }
  }
}

sim::Co<void> Broker::HandleControlPlaneRequest(Request req) {
  if (cp_ != nullptr) {
    co_await cp_->Handle(std::move(req));
    co_return;
  }
  // Control plane off: answer with the matching error response so a
  // misdirected client fails fast instead of hanging.
  switch (PeekType(Slice(req.frame))) {
    case MsgType::kControllerHeartbeatRequest:
      SendResponse(req.conn, Encode(ControllerHeartbeatResponse{
                                 ErrorCode::kInvalidRequest, 0}));
      break;
    case MsgType::kLeaderAndIsrRequest:
      SendResponse(req.conn,
                   Encode(LeaderAndIsrResponse{ErrorCode::kInvalidRequest}));
      break;
    case MsgType::kLogInfoRequest:
      SendResponse(req.conn,
                   Encode(LogInfoResponse{ErrorCode::kInvalidRequest, -1,
                                          -1}));
      break;
    case MsgType::kJoinGroupRequest:
      SendResponse(req.conn,
                   Encode(JoinGroupResponse{ErrorCode::kNotController, 0}));
      break;
    case MsgType::kSyncGroupRequest: {
      SyncGroupResponse resp;
      resp.error = ErrorCode::kNotController;
      SendResponse(req.conn, Encode(resp));
      break;
    }
    case MsgType::kGroupHeartbeatRequest:
      SendResponse(req.conn, Encode(GroupHeartbeatResponse{
                                 ErrorCode::kNotController}));
      break;
    case MsgType::kLeaveGroupRequest:
      SendResponse(req.conn,
                   Encode(LeaveGroupResponse{ErrorCode::kNotController}));
      break;
    default:
      break;
  }
  co_return;
}

void Broker::StartPushReplication(const TopicPartitionId&,
                                  const std::vector<Broker*>&) {
  KD_CHECK(false) << "push replication requires the KafkaDirect broker";
}

void Broker::StartReplicaFetcher(const TopicPartitionId& tp,
                                 net::NodeId leader_node) {
  sim::Spawn(sim_, ReplicaFetcherLoop(tp, leader_node));
}

sim::Co<void> Broker::ReplicaFetcherLoop(TopicPartitionId tp,
                                         net::NodeId leader_node) {
  PartitionState* ps = GetPartition(tp);
  KD_CHECK(ps != nullptr && !ps->is_leader);
  obs::TrackId rt = 0;
  if (tracer_->enabled()) {
    rt = tracer_->DefineTrack("broker-" + std::to_string(config_.id),
                              "replica-fetcher");
  }
  auto conn_or = co_await tcp_.Connect(node_, leader_node, kKafkaPort);
  if (!conn_or.ok()) co_return;
  net::MessageStreamPtr conn = conn_or.value();
  while (true) {
    FetchRequest freq;
    freq.tp = tp;
    freq.offset = ps->log.log_end_offset();
    freq.max_bytes = kReplicaFetchMaxBytes;
    freq.max_wait_ns = kReplicaFetchMaxWaitNs;
    freq.is_replica = true;
    freq.replica_id = config_.id;
    if (!(co_await conn->Send(Encode(freq, buf_pool_.Acquire()), false))
             .ok()) {
      co_return;
    }
    auto reply = co_await conn->Recv();
    if (!reply.ok()) co_return;
    std::vector<uint8_t> reply_frame = std::move(reply).value();
    FetchResponse resp;
    Status decode_st = Decode(Slice(reply_frame), &resp, &buf_pool_);
    buf_pool_.Release(std::move(reply_frame));
    if (!decode_st.ok() || resp.error != ErrorCode::kNone) {
      co_await sim::Delay(sim_, 1000 * 1000);  // back off and retry
      continue;
    }
    if (!resp.batches.empty()) {
      // Append the replicated batches (offsets already assigned by the
      // leader). Followers re-verify integrity, then pay the two receive
      // copies the paper attributes to pull replication.
      tracer_->Begin(rt, "replica.append");
      Slice rest(resp.batches);
      co_await Work(cost().kafka.replica_append_ns);
      co_await Work(cost().CrcCost(rest.size()));
      co_await Work(cost().CopyCost(rest.size()));
      while (!rest.empty()) {
        auto view_or = RecordBatchView::Parse(rest);
        if (!view_or.ok()) break;  // torn tail; refetch next round
        const RecordBatchView& view = view_or.value();
        if (view.base_offset() != ps->log.log_end_offset()) break;
        co_await ps->append_mu.Lock();
        Status st = ps->log.Append(view.data(), view.record_count());
        ps->append_mu.Unlock();
        if (!st.ok()) break;
        stats_.replication_writes++;
        stats_.bytes_appended += view.total_size();
        rest.RemovePrefix(view.total_size());
      }
      tracer_->End(rt);
    }
    buf_pool_.Release(std::move(resp.batches));
    if (resp.high_watermark > ps->log.high_watermark()) {
      ps->log.SetHighWatermark(resp.high_watermark);
      ps->hwm_advanced.Pulse();
      OnHwmAdvanced(*ps);
    }
  }
}

}  // namespace kafka
}  // namespace kafkadirect
