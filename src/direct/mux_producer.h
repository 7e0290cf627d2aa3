// MuxProducer: the client half of the QP-multiplexing connection layer
// (DESIGN.md §14).
//
// One endpoint = one TCP control channel + ONE RC QP to the broker,
// carrying many *logical client streams*. Each stream is identified by the
// 32-bit `stream` word of the 24-byte ctrl header; the endpoint holds one
// exclusive produce grant on the head file, assigns write positions
// locally, and notifies the broker with Write + kProduceNotify Sends (the
// Send carries the stream id, which the 32-bit immediate cannot). Acks
// demultiplex by stream and resolve per-stream FIFO.
//
// Streams open in bulk (one kMuxOpen covers a contiguous id range, one
// grant comes back) and carry a per-stream credit window layered on the
// broker's SRQ. When the broker's connection cache evicts this endpoint's
// transport QP — or the QP fails for any reason — the endpoint lazily
// reconnects: fresh QP, fresh exclusive grant, then a single-stream
// re-open per active stream whose grant replays the broker's committed
// count. Records at or below that count are resolved as committed
// (exactly-once: never re-sent); the rest are transparently re-posted
// into the new file.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "direct/control.h"
#include "direct/kd_broker.h"
#include "rdma/queue_pair.h"
#include "sim/semaphore.h"

namespace kafkadirect {
namespace kd {

struct MuxProducerConfig {
  /// Per-endpoint pipelining window across all streams.
  int max_inflight = 16;
  uint64_t producer_id = 0;
};

/// Result of a bulk stream open.
struct MuxOpenResult {
  uint32_t admitted = 0;        // contiguous prefix admitted
  uint32_t credits = 0;         // per-stream notify window
  uint64_t committed = 0;       // single-stream reopen: resync anchor
  sim::TimeNs retry_after_ns = 0;  // admission backpressure hint
};

class MuxProducer {
 public:
  MuxProducer(sim::Simulator& sim, net::Fabric& fabric, tcpnet::Network& tcp,
              net::NodeId node, MuxProducerConfig config);
  ~MuxProducer();

  /// TCP control channel + RC QP + exclusive produce grant on `tp`, the
  /// partition every stream of this endpoint produces to.
  sim::Co<Status> Connect(KafkaDirectBroker* leader,
                          const kafka::TopicPartitionId& tp);

  /// Opens `count` contiguous streams [base, base+count) with ONE ctrl
  /// round trip. Partial admission returns the admitted prefix plus the
  /// broker's retry-after hint.
  sim::Co<StatusOr<MuxOpenResult>> OpenStreams(uint32_t base,
                                               uint32_t count);
  /// Closes `count` contiguous streams. Produces still waiting on a
  /// stream's credit window, or with a record not yet posted, return
  /// "stream closed"; records already on the wire complete with the
  /// broker's ack, which CloseStreams waits for, as Flush does, before
  /// the broker-side close goes out (after a Flush there is none).
  sim::Co<Status> CloseStreams(uint32_t base, uint32_t count);

  /// Synchronous produce on one logical stream.
  sim::Co<StatusOr<int64_t>> Produce(uint32_t stream, Slice key,
                                     Slice value);
  /// Waits until every open stream has drained its pending records.
  sim::Co<Status> Flush();

  void Close();

  Histogram& latencies() { return latencies_; }
  uint64_t acked_records() const { return acked_records_; }
  uint64_t errors() const { return errors_; }
  uint64_t reconnects() const { return reconnects_; }
  uint64_t resynced_records() const { return resynced_records_; }
  size_t open_streams() const { return streams_.size(); }
  bool connected() const { return !disconnected_; }
  /// Broker-side QP number of the current transport connection (eviction
  /// target for tests).
  uint32_t broker_qp_num() const { return broker_qp_num_; }

 private:
  struct Pending {
    sim::TimeNs sent_at = 0;
    std::vector<uint8_t> batch;   // alive until acked (resend source)
    std::vector<uint8_t> notify;  // Write+Send metadata buffer
    std::shared_ptr<sim::Event> done;
    CtrlMsg ack;
    bool posted = false;          // false once the QP died before the post
    bool closed = false;          // failed by CloseStreams before its post
  };

  /// Client-side state of the exclusive head-file grant.
  struct FileGrant {
    uint16_t file_id = 0;  // 0 = no grant held (the broker never grants 0)
    uint64_t addr = 0;
    uint32_t rkey = 0;
    uint64_t capacity = 0;
    uint64_t write_pos = 0;
  };

  /// Client-side view of one open logical stream.
  struct StreamState {
    uint32_t id = 0;
    /// Shared with the produces parked on it, so no close destroys it
    /// under them; its identity tells a stream from a later re-open.
    std::shared_ptr<sim::Semaphore> credits;
    std::deque<std::shared_ptr<Pending>> pending;  // FIFO, acks match front
    uint64_t acked = 0;  // records resolved (acks + resync), mirrors the
                         // broker's committed count when drained
    bool closing = false;  // CloseStreams waits for its posted records
  };

  /// Builds the transport: CQs, QP, CM exchange, ack receives, loops.
  sim::Co<Status> EstablishTransport();
  /// Exclusive-grant (re)request over the TCP control channel.
  sim::Co<Status> RequestAccess(uint16_t stale_file_id,
                                uint64_t rotate_target = 0);
  /// One kMuxOpen round trip over the RDMA ctrl plane.
  sim::Co<StatusOr<MuxOpenResult>> SendOpen(uint32_t base, uint32_t count);
  /// Posts `msg` as an inline ctrl Send, waiting out a full send queue.
  sim::Co<Status> PostCtrl(CtrlMsg msg);
  /// Lazy reconnect: new transport + grant, re-open every stream, resolve
  /// records the broker already committed, re-post the rest.
  sim::Co<Status> Reconnect();
  /// Position assignment + Write/Send post for one record of `stream`.
  sim::Co<Status> PostRecord(uint32_t stream, std::shared_ptr<Pending> p);
  /// Stream `id` if it is open and not closing, and, given `credits`, is
  /// still the incarnation that semaphore belongs to; else nullptr.
  StreamState* OpenStream(uint32_t id,
                          const sim::Semaphore* credits = nullptr);
  sim::Co<void> RecvAckLoop(std::shared_ptr<bool> alive,
                            std::shared_ptr<rdma::CompletionQueue> cq);
  sim::Co<void> SendCqDrainer(std::shared_ptr<bool> alive,
                              std::shared_ptr<rdma::CompletionQueue> cq);
  void HandleAck(const CtrlMsg& msg);
  /// Marks the transport dead and kicks off a background reconnect.
  void OnTransportFailure();
  /// Spawns the background reconnect pass unless one is already queued.
  void KickReconnect();

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  tcpnet::Network& tcp_;
  net::NodeId node_;
  MuxProducerConfig config_;
  kafka::TopicPartitionId tp_;
  KafkaDirectBroker* leader_ = nullptr;

  rdma::Rnic rnic_;
  std::shared_ptr<rdma::CompletionQueue> send_cq_;
  std::shared_ptr<rdma::CompletionQueue> recv_cq_;
  std::shared_ptr<rdma::QueuePair> qp_;
  net::MessageStreamPtr ctrl_;
  std::vector<std::vector<uint8_t>> ack_bufs_;

  FileGrant grant_;

  std::map<uint32_t, StreamState> streams_;
  /// kMuxGrant waiters keyed by base stream id.
  std::map<uint32_t, std::pair<std::shared_ptr<sim::Event>, CtrlMsg>>
      grant_waiters_;

  sim::Semaphore window_;
  std::unique_ptr<sim::AsyncMutex> post_mu_;   // keeps posts in order
  /// The record PostRecord is posting under post_mu_: a close leaves it
  /// to complete with its ack.
  const Pending* posting_ = nullptr;
  std::unique_ptr<sim::AsyncMutex> ctrl_mu_;   // one access request at a time
  std::unique_ptr<sim::AsyncMutex> reconnect_mu_;

  Histogram latencies_;
  uint64_t acked_records_ = 0;
  uint64_t errors_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t resynced_records_ = 0;
  /// Failure epoch: bumped on every transport death so a reconnect pass
  /// can detect its freshly built QP dying under it (cache ping-pong).
  uint64_t transport_failures_ = 0;
  uint32_t broker_qp_num_ = 0;
  uint64_t next_wr_id_ = 1;
  int signal_every_ = 1;
  uint64_t notify_seq_ = 0;
  bool disconnected_ = true;
  bool reconnect_queued_ = false;
  bool closed_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace kd
}  // namespace kafkadirect
