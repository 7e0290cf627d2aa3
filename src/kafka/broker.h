// Broker: a Kafka storage server, faithful to the architecture in Fig. 2 of
// the paper:
//
//   - network processor threads (default 3) accept TCP connections, frame
//     requests and enqueue them (step 1) into the shared request queue;
//   - API worker threads (default 8) dequeue (step 3), verify CRCs, assign
//     offsets, append to partition logs (step 4) and answer fetches;
//   - replication: TCP pull (followers run fetch loops against the leader)
//     advances follower LEOs; the leader's high watermark is the minimum
//     in-sync LEO, and acks=all produce responses park in purgatory until
//     the HWM covers them.
//
// KafkaDirect's RDMA modules plug in through the virtual extension hooks
// (HandleExtendedRequest / OnAppended / OnHwmAdvanced / OnRolled) — the
// TCP datapath is never modified, mirroring the paper's backward
// compatibility requirement.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "kafka/log.h"
#include "kafka/protocol.h"
#include "net/message_stream.h"
#include "obs/observability.h"
#include "rdma/rnic.h"
#include "sim/awaitable.h"
#include "sim/channel.h"
#include "sim/resource.h"
#include "sim/semaphore.h"
#include "sim/task.h"
#include "tcpnet/tcp.h"

namespace kafkadirect {
namespace kafka {

struct BrokerConfig {
  int32_t id = 0;
  int num_api_workers = 8;
  uint64_t segment_capacity = 64ull << 20;  // paper: 1 GiB, scaled for RAM

  // --- KafkaDirect module toggles (evaluated independently in §5) ---
  bool rdma_produce = false;
  bool rdma_replicate = false;
  bool rdma_consume = false;

  // RDMA push replication (§4.3.2).
  uint32_t push_replication_credits = 64;
  uint64_t replication_max_batch_bytes = 1024;  // paper's chosen default

  // --- Many-client scalability levers (DESIGN.md §10). All default off /
  // 1 so the baseline event schedule and golden traces are unchanged. ---

  /// Serve all ctrl-message receives from one SharedReceiveQueue instead
  /// of per-QP receive pools; broker recv-buffer memory becomes O(pool)
  /// instead of O(clients).
  bool use_srq = false;
  /// Max completions drained per poller wakeup (1 = per-CQE polling).
  int cq_poll_batch = 1;

  // --- Million-client connection architecture (DESIGN.md §14). All
  // default off so the paper figures stay bit-identical. ---

  /// QP multiplexing: accept logical client streams (kMuxOpen/kMuxClose
  /// ctrl messages) carried over shared transport QPs, demuxed on the
  /// 32-bit stream id in the ctrl header, with per-stream notify credits
  /// layered on the SRQ.
  bool qp_mux = false;

  /// DCT-like connection cache: keep live transport QPs in an LRU, evict
  /// the coldest (Disconnect) when over capacity. Clients reconnect
  /// lazily on next use; stream state survives via the mux directory.
  bool connection_cache = false;
  uint32_t connection_cache_capacity = 64;

  /// Per-client metadata (mux stream slots, consumer-session metadata
  /// slots) lives in one SlotArena MemoryRegion registered at Start()
  /// instead of one MR per client: the N-th client costs a free-list pop,
  /// not a RegistrationCost page-pinning charge.
  bool metadata_arena = false;
  /// Arena capacity in slots; bounds simultaneously-active clients.
  uint32_t metadata_arena_slots = 65536;

  /// Admission control: when mux slots / metadata slots run dry, reject
  /// stream opens with a retry-after hint instead of stalling the broker.
  /// Off = opens beyond capacity are rejected with a hard error.
  bool admission_control = false;
  /// Cap on simultaneously-open logical streams (0 = arena capacity).
  uint32_t admission_max_streams = 0;

  /// FAULT INJECTION (monitor/flight-recorder tests only): every
  /// replication credit grant returns this many credits beyond the one
  /// its commit consumed, deliberately pushing credits_outstanding past the
  /// RNR-proof cap so the live monitor's direct.credit_window watcher
  /// fires mid-run. 0 = off.
  uint32_t fault_credit_overgrant = 0;

  // --- Cluster control plane (DESIGN.md §15). All default off so the
  // paper figures and golden traces stay byte-identical. ---

  /// Run the controller/coordinator protocol: sim-clock term/heartbeat
  /// controller election, broker-death detection, ISR-elected partition
  /// leader failover, ISR shrink/expand under lag, and the consumer-group
  /// coordinator (join/sync/heartbeat/rebalance generations).
  bool control_plane = false;
};

/// TCP pull replication: how long a follower's fetch long-polls the leader.
constexpr sim::TimeNs kReplicaFetchMaxWaitNs = 500 * 1000 * 1000;  // 500 ms

/// Broker-side runtime counters, used by benches for CPU-load and
/// empty-fetch measurements.
struct BrokerStats {
  uint64_t produce_requests = 0;
  uint64_t rdma_produce_requests = 0;
  uint64_t fetch_requests = 0;
  uint64_t empty_fetch_responses = 0;
  uint64_t bytes_appended = 0;
  uint64_t replication_writes = 0;
};

class Broker;
class ControlPlane;

/// One broker's identity as seen by the control plane (id + fabric node).
struct ControlPlanePeer {
  int32_t id = -1;
  uint64_t node = 0;  // net::NodeId
};

/// Per-partition extension state owned by subclasses (KafkaDirect modules).
struct PartitionExt {
  virtual ~PartitionExt() = default;
};

/// Broker-side state of one topic partition.
struct PartitionState {
  PartitionState(sim::Simulator& sim, TopicPartitionId tp_id,
                 uint64_t segment_capacity)
      : tp(std::move(tp_id)), log(segment_capacity), append_mu(sim),
        leo_advanced(sim), hwm_advanced(sim) {}

  TopicPartitionId tp;
  PartitionLog log;
  bool is_leader = true;
  int32_t leader_id = 0;
  std::vector<int32_t> replicas;              // includes the leader
  std::map<int32_t, int64_t> follower_leo;    // leader-side ISR progress
  sim::AsyncMutex append_mu;                  // one API worker per TP file
  sim::Event leo_advanced;                    // pulses on append
  sim::Event hwm_advanced;                    // pulses on HWM advance
  std::map<std::string, int64_t> committed_offsets;  // consumer groups
  std::unique_ptr<PartitionExt> ext;          // KafkaDirect module state

  // --- control plane (DESIGN.md §15); inert unless config.control_plane ---
  std::vector<int32_t> isr;                   // in-sync replicas, incl leader
  int64_t leader_epoch = 0;                   // bumped on every leader move
  /// Last replica-fetch arrival per follower (ISR expansion freshness).
  std::map<int32_t, sim::TimeNs> follower_seen;
  /// 0/1 leadership gauge feeding cluster.single_leader_per_partition.
  obs::Gauge* leader_gauge = nullptr;

  bool InIsr(int32_t broker_id) const {
    for (int32_t r : isr) {
      if (r == broker_id) return true;
    }
    return false;
  }
};

class Broker {
 public:
  /// A unit of work in the shared request queue. `conn == nullptr` marks an
  /// RDMA-originated request (a WriteWithImm completion forwarded by the
  /// RDMA network module, carrying {file_id, order} from the immediate).
  struct Request {
    net::MessageStreamPtr conn;
    std::vector<uint8_t> frame;
    uint16_t file_id = 0;
    uint16_t order = 0;
    uint32_t byte_len = 0;
    uint32_t qp_num = 0;  // QP the RDMA request arrived on (for acks)
    uint32_t stream = 0;  // logical mux stream (0 = unmuxed), §14
    sim::TimeNs enqueue_ns = 0;   // when it entered the request queue
    uint64_t queue_span_id = 0;   // open "queue.wait" trace span
  };

  Broker(sim::Simulator& sim, net::Fabric& fabric, tcpnet::Network& tcp,
         BrokerConfig config);
  virtual ~Broker();  // out of line: ControlPlane is incomplete here

  /// Binds the TCP listener and spawns network processors + API workers.
  virtual Status Start();

  /// Coroutine-aware teardown: shuts down every listener, closes accepted
  /// connections and the shared request channel so parked network
  /// processors, readers, and API workers run to completion instead of
  /// leaking their suspended frames (ROADMAP: coroutine-aware shutdown).
  /// Idempotent. The simulator must be drained afterwards for the woken
  /// coroutines to actually finish.
  virtual void Shutdown();

  /// Registers a partition hosted by this broker (called by the Cluster
  /// controller at topic creation).
  virtual PartitionState* AddPartition(const TopicPartitionId& tp,
                                       int32_t leader_id,
                                       std::vector<int32_t> replicas);

  /// Starts the TCP pull-replication fetcher for a followed partition.
  void StartReplicaFetcher(const TopicPartitionId& tp,
                           net::NodeId leader_node);

  /// Starts RDMA push replication from this (leader) broker to the
  /// followers — implemented by the KafkaDirect broker (§4.3.2).
  virtual void StartPushReplication(const TopicPartitionId& tp,
                                    const std::vector<Broker*>& followers);

  /// Installs topic metadata served to clients.
  void SetTopicMetadata(const std::string& topic,
                        std::vector<int32_t> leaders);

  /// Spins up the control plane (controller election, failover, group
  /// coordination) once the cluster knows every peer. No-op unless
  /// config.control_plane.
  void StartControlPlane(std::vector<ControlPlanePeer> peers);
  ControlPlane* control_plane() { return cp_.get(); }

  /// Installs a leadership/ISR decision (from the controller broadcast, a
  /// leader's ISR report, or a test). Promotes/demotes the local replica,
  /// fences by leader epoch, starts the pull fetcher toward a new leader,
  /// and fires OnLeadershipChanged on transitions.
  void ApplyLeaderAndIsr(const LeaderAndIsrRequest& req);

  /// Client-facing leader id for a partition (-1 if unknown); reflects
  /// controller broadcasts, so it is the dynamic post-failover view.
  int32_t MetadataLeaderOf(const TopicPartitionId& tp) const;

  /// Serves connections arriving on an extra listener (the OSU-Kafka
  /// two-sided RDMA transport plugs in here).
  void ServeListener(std::shared_ptr<net::StreamListener> listener);

  PartitionState* GetPartition(const TopicPartitionId& tp);

  sim::Simulator& simulator() { return sim_; }
  net::Fabric& fabric() { return fabric_; }
  tcpnet::Network& tcp() { return tcp_; }
  rdma::Rnic& rnic() { return rnic_; }
  net::NodeId node() const { return node_; }
  int32_t id() const { return config_.id; }
  const BrokerConfig& config() const { return config_; }
  const CostModel& cost() const { return fabric_.cost(); }
  const BrokerStats& stats() const { return stats_; }
  const BufferPool& buffer_pool() const { return buf_pool_; }

  /// Mean fraction of API-worker CPU busy over [0, now].
  double WorkerUtilization() const {
    sim::TimeNs now = sim_.Now();
    if (now <= 0) return 0.0;
    return static_cast<double>(worker_busy_ns_) /
           (static_cast<double>(now) * config_.num_api_workers);
  }

 protected:
  // --- extension hooks (overridden by the KafkaDirect broker) ---

  /// Handles request types the base broker doesn't know. Default: error
  /// response for stream requests, drop for RDMA-originated ones.
  virtual sim::Co<void> HandleExtendedRequest(Request req);

  /// Called (still under the partition append lock) after a batch is
  /// committed at [pos, pos+len) with assigned base offset.
  virtual void OnAppended(PartitionState& ps, uint64_t pos, uint64_t len,
                          int64_t base_offset, uint32_t record_count);

  /// Called when the partition's high watermark advances.
  virtual void OnHwmAdvanced(PartitionState& ps);

  /// Called when the head file of the partition is sealed and rolled.
  virtual void OnRolled(PartitionState& ps);

  /// Called when this broker gains or loses leadership of a partition
  /// (control-plane failover). Losing leadership must fence in-flight
  /// zero-copy state — the KafkaDirect broker aborts the produce grant and
  /// closes ring push sessions here.
  virtual void OnLeadershipChanged(PartitionState& ps, bool is_leader);

  // --- shared machinery available to subclasses ---

  /// Appends a validated batch (assigning offsets) under the partition
  /// lock, charging CRC + copy costs as requested; fires replication and
  /// purgatory machinery. Returns the assigned base offset.
  virtual sim::Co<StatusOr<int64_t>> CommitBatch(PartitionState* ps,
                                         std::vector<uint8_t> batch,
                                         bool charge_copy);

  /// Recomputes the leader HWM from follower progress; fires events/hooks.
  void AdvanceHwm(PartitionState* ps);

  /// Queues a response through the network-thread pool. `zero_copy` marks
  /// sendfile-style data responses (fetch data from mapped files);
  /// `span_name` labels the send span in traces (string literal).
  void SendResponse(net::MessageStreamPtr conn, std::vector<uint8_t> frame,
                    bool zero_copy = false,
                    const char* span_name = "net.send");

  /// Charges `ns` of API-worker CPU time (tracked for utilization stats).
  sim::Co<void> Work(sim::TimeNs ns);

  /// Enqueues into the shared request queue (used by RDMA modules, step 2).
  /// Samples queue depth and opens the request's "queue.wait" span.
  void EnqueueRequest(Request req);

  sim::Co<void> ApiWorkerLoop(int worker_index);
  sim::Co<void> AcceptLoop(std::shared_ptr<net::StreamListener> listener);
  sim::Co<void> ConnectionReader(net::MessageStreamPtr conn);

  sim::Co<void> HandleProduce(Request req);
  sim::Co<void> HandleFetch(Request req);
  sim::Co<void> HandleMetadata(Request req);
  virtual sim::Co<void> HandleCommitOffset(Request req);
  virtual sim::Co<void> HandleFetchCommittedOffset(Request req);
  /// Routes controller/group RPCs into the ControlPlane (error response
  /// when the control plane is off).
  sim::Co<void> HandleControlPlaneRequest(Request req);
  /// Stores a committed offset and, when the control plane replicates
  /// commits, forwards it to every ISR follower before returning.
  sim::Co<void> StoreCommittedOffset(PartitionState* ps,
                                     const CommitOffsetRequest& creq);

  /// Builds and sends a fetch response for a request whose data is ready.
  sim::Co<void> CompleteFetch(net::MessageStreamPtr conn, FetchRequest freq,
                              PartitionState* ps);
  /// Parks a long-poll fetch until data is visible or the wait expires.
  sim::Co<void> ParkedFetch(net::MessageStreamPtr conn, FetchRequest freq,
                            PartitionState* ps);

  sim::Co<void> ReplicaFetcherLoop(TopicPartitionId tp,
                                   net::NodeId leader_node);

  sim::Co<void> RespondWhenCommitted(net::MessageStreamPtr conn,
                                     PartitionState* ps,
                                     int64_t required_offset,
                                     int64_t base_offset);

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  tcpnet::Network& tcp_;
  BrokerConfig config_;
  net::NodeId node_;
  rdma::Rnic rnic_;

  sim::Channel<Request> requests_;
  sim::Resource net_threads_;
  sim::TimeNs worker_busy_ns_ = 0;

  /// Recycles message buffers on the produce/fetch data path. Incoming
  /// request frames are released here once decoded; response frames and
  /// batch copies are drawn from it, so at steady state the broker's
  /// request loop performs no heap allocation.
  BufferPool buf_pool_;

  std::map<TopicPartitionId, std::unique_ptr<PartitionState>> partitions_;
  std::map<std::string, std::vector<int32_t>> topic_metadata_;
  std::shared_ptr<tcpnet::TcpListener> listener_;
  /// Extra listeners passed to ServeListener (OSU transport); shut down
  /// with the broker.
  std::vector<std::shared_ptr<net::StreamListener>> served_listeners_;
  /// Accepted connections, for Shutdown(); weak so a closed connection's
  /// storage is reclaimed as soon as its reader finishes.
  std::vector<std::weak_ptr<net::MessageStream>> accepted_conns_;
  BrokerStats stats_;
  bool started_ = false;
  bool shut_down_ = false;

  /// kd.broker.<id>.* instruments; registered once in the constructor,
  /// bumped allocation-free on hot paths.
  struct ObsHandles {
    obs::Gauge* queue_depth = nullptr;
    obs::LogLinearHistogram* queue_wait_ns = nullptr;
    obs::LogLinearHistogram* produce_latency_ns = nullptr;
    obs::LogLinearHistogram* fetch_latency_ns = nullptr;
    obs::Counter* hwm_updates = nullptr;
    obs::Counter* isr_updates = nullptr;
    obs::Counter* produce_bytes = nullptr;
    obs::Counter* produce_copied_bytes = nullptr;
    obs::Counter* fetch_bytes_returned = nullptr;
    /// Leader high watermark; only ever Set() on advance, so value <
    /// high_water means a backwards move (monitor: kafka.hwm_monotonic).
    obs::Gauge* hwm_offset = nullptr;
  };
  ObsHandles obs_;
  /// Flight recorder (always-on black box), for breadcrumbs on HWM
  /// advances, ISR changes, commits, and credit grants.
  obs::FlightRecorder* flight_ = nullptr;
  obs::SpanTracer* tracer_;
  obs::TrackId net_track_ = 0;     // network processors ("net")
  obs::TrackId queue_track_ = 0;   // request queue waits
  std::vector<obs::TrackId> worker_tracks_;  // one per API worker
  /// Track of the worker currently dispatching; set by ApiWorkerLoop right
  /// before each handler co_await and captured by the handler's first
  /// statement (coroutine bodies start synchronously on await).
  obs::TrackId dispatch_track_ = 0;

  /// Control plane (DESIGN.md §15); null unless config.control_plane and
  /// StartControlPlane() ran.
  std::unique_ptr<ControlPlane> cp_;
  friend class ControlPlane;
  friend class GroupCoordinator;
};

}  // namespace kafka
}  // namespace kafkadirect
