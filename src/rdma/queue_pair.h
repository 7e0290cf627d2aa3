// QueuePair: a reliably-connected (RC) queue pair.
//
// Semantics reproduced from the InfiniBand RC transport, because the
// paper's protocols depend on them:
//  - work requests execute in post order; deliveries and completions are
//    in order per QP (KafkaDirect's exclusive-produce correctness, §4.2.2);
//  - one-sided Write/Read/atomics execute at the responder RNIC with no
//    responder CPU involvement;
//  - WriteWithImm consumes a posted receive and surfaces {byte_len, imm}
//    only — the receiver does not learn the destination address (§4.2.2);
//  - a Send with no posted receive (RNR) or a remote access violation tears
//    the connection down; both sides observe QP error and flushed WRs;
//  - atomics serialize on the responder RNIC's atomic unit (2.68 Mops/s).
#pragma once

#include <deque>
#include <memory>
#include <span>

#include "common/status.h"
#include "net/fabric.h"
#include "obs/observability.h"
#include "rdma/completion_queue.h"
#include "rdma/memory_region.h"
#include "rdma/srq.h"
#include "rdma/verbs.h"
#include "sim/channel.h"
#include "sim/task.h"

namespace kafkadirect {
namespace rdma {

class Rnic;

class QueuePair : public std::enable_shared_from_this<QueuePair> {
 public:
  enum class State { kInit, kConnected, kError };

  QueuePair(Rnic* rnic, std::shared_ptr<CompletionQueue> send_cq,
            std::shared_ptr<CompletionQueue> recv_cq,
            std::shared_ptr<SharedReceiveQueue> srq = nullptr);
  ~QueuePair();
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Posts a send-queue work request. Fails if the QP is not connected or
  /// the send queue is full.
  Status PostSend(const WorkRequest& wr);

  /// Postlist variant (ibv_post_send with a `next`-chained WR list): the
  /// whole chain is validated up front and posted all-or-nothing — one
  /// doorbell for the chain head, `postlist_wqe_ns` per later WR.
  /// (Deviation from real verbs, which partially post and return bad_wr;
  /// all-or-nothing keeps simulation state simple. See DESIGN.md §10.)
  Status PostSend(std::span<const WorkRequest> wrs);

  /// Posts a receive buffer (required for incoming Send / WriteWithImm).
  /// `buf` may be null for immediate-only receives. Invalid on an
  /// SRQ-attached QP — post to the SRQ instead.
  Status PostRecv(uint64_t wr_id, uint8_t* buf, uint32_t len);

  /// Postlist variant of PostRecv; all-or-nothing.
  Status PostRecv(std::span<const RecvRequest> reqs);

  /// Tears the connection down; both sides transition to error and all
  /// outstanding work requests are flushed.
  void Disconnect();

  State state() const { return state_; }
  uint32_t qp_num() const { return qp_num_; }
  Rnic* rnic() const { return rnic_; }
  QueuePair* peer() const { return peer_; }
  CompletionQueue* send_cq() const { return send_cq_.get(); }
  CompletionQueue* recv_cq() const { return recv_cq_.get(); }

  /// Fires when the QP enters the error state (the broker uses this as the
  /// "client disconnected" signal for revoking RDMA access).
  sim::Event& error_event() { return error_event_; }

  size_t outstanding_sends() const { return outstanding_; }
  size_t posted_recvs() const { return recvs_.size(); }
  SharedReceiveQueue* srq() const { return srq_.get(); }

  /// Selective-signaling mode (DESIGN.md §12): when on, an unsignaled WR's
  /// send-queue slot is NOT reclaimed at completion time — it is freed
  /// lazily when the next CQE-generating (signaled or errored) completion
  /// lands, exactly like a real RNIC where the driver only learns about SQ
  /// progress from CQEs. Off (the default) keeps the historical behaviour:
  /// every completion frees its slot immediately, which is what a QP whose
  /// WRs are all unsignaled (e.g. broker ctrl sends) relies on. Callers
  /// that enable this MUST post a signaled WR at least every
  /// `max_send_wr / 2` posts or the SQ wedges (the classic hazard; see
  /// tests/rdma/selective_signaling_test.cc).
  void set_selective_signaling(bool on) { lazy_sq_reclaim_ = on; }
  bool selective_signaling() const { return lazy_sq_reclaim_; }

  /// Called by CompletionQueue on overflow.
  void FailFromCq();

 private:
  friend class Rnic;
  friend Status Connect(const std::shared_ptr<QueuePair>& a,
                        const std::shared_ptr<QueuePair>& b);

  struct Delivery {
    WorkRequest wr;
    std::shared_ptr<QueuePair> initiator;  // kept alive until executed
  };

  static sim::Co<void> SendEngine(std::shared_ptr<QueuePair> self);
  static sim::Co<void> ResponderWorker(std::shared_ptr<QueuePair> self);

  /// Executes one inbound operation at this (responder) QP.
  sim::Co<void> Execute(Delivery d);

  /// Pops the next receive buffer — from the SRQ when attached, the QP's
  /// own receive queue otherwise. False when drained.
  bool TakeRecv(RecvRequest* out);

  /// The drained-receive-pool failure path for an inbound Send /
  /// WriteWithImm (`rop` names the receive-side opcode). SRQ-attached QPs
  /// surface the error on the receiver's CQ; plain RQs tell only the
  /// initiator. Both tear the connection down.
  void FailRnr(const WorkRequest& wr, QueuePair* initiator, Opcode rop,
               sim::TimeNs prop);

  void Fail();

  /// Schedules the initiator-side CQE/bookkeeping for `wr` at time `when`.
  void CompleteInitiator(const WorkRequest& wr, WcStatus status,
                         sim::TimeNs when, uint32_t byte_len);

  /// Delivers a responder-side (receive) CQE at time `when`.
  void CompleteRecv(const WorkCompletion& wc, sim::TimeNs when);

  Rnic* rnic_;
  sim::Simulator& sim_;        // safe after the owning Rnic is gone
  const CostModel& cost_;      // fabric-owned, same lifetime guarantee:
                               // completion flushes may outlive the Rnic
  std::shared_ptr<CompletionQueue> send_cq_;  // QPs co-own their CQs so
  std::shared_ptr<CompletionQueue> recv_cq_;  // late completions are safe
  QueuePair* peer_ = nullptr;
  State state_ = State::kInit;
  uint32_t qp_num_;

  sim::Channel<WorkRequest> send_ch_;
  sim::Channel<Delivery> deliveries_;
  std::deque<RecvRequest> recvs_;
  std::shared_ptr<SharedReceiveQueue> srq_;  // nullptr = plain RQ
  sim::Event error_event_;

  size_t outstanding_ = 0;
  /// Selective signaling: lazy SQ-slot reclamation state. When
  /// `lazy_sq_reclaim_` is on, completed-but-unsignaled WRs park their slot
  /// here until the next CQE reclaims the whole run. A counter (not
  /// positional bookkeeping) because per-QP completion times are not
  /// monotone across op types; only the count of freeable slots matters.
  bool lazy_sq_reclaim_ = false;
  size_t sq_unreclaimed_ = 0;
  /// Responder response-channel ordering: responses (acks, read data,
  /// atomic results) leave in execution order.
  sim::TimeNs resp_chain_ = 0;

  /// Per-QP verbs counters (kd.rdma.qp.<num>.*) plus process-wide
  /// aggregates; registered once at construction, bumped in PostSend /
  /// PostRecv with no allocation.
  struct OpCounters {
    obs::Counter* send = nullptr;
    obs::Counter* write = nullptr;
    obs::Counter* read = nullptr;
    obs::Counter* atomic = nullptr;
    obs::Counter* recv = nullptr;
    obs::Counter* inline_sends = nullptr;
    obs::Counter* bytes = nullptr;
  };
  OpCounters qp_counters_;
  OpCounters agg_counters_;
  /// Process-wide datapath-protocol counters (DESIGN.md §12): the
  /// signaled/posted and CQE/doorbell ratios the ablation bench and the
  /// obs invariant tests read.
  struct SignalCounters {
    obs::Counter* wrs_posted = nullptr;    // every send-queue WR
    obs::Counter* wrs_signaled = nullptr;  // WRs posted with signaled=true
    obs::Counter* doorbells = nullptr;     // non-chained posts (MMIO rings)
    obs::Counter* cqes = nullptr;          // CQEs delivered (send+recv side)
    obs::Counter* rnr_events = nullptr;    // receiver-not-ready teardowns
  };
  SignalCounters sig_counters_;
  obs::LogLinearHistogram* postlist_hist_ = nullptr;
  obs::SpanTracer* tracer_;
  obs::TrackId trace_track_ = 0;
  // Flight recorder (always-on black box): every posted verb and RNR
  // teardown leaves a breadcrumb in the ring.
  obs::FlightRecorder* flight_ = nullptr;
};

/// Connects two INIT-state QPs into an RC connection and starts their
/// engines. (In-process stand-in for the usual out-of-band QP exchange.)
Status Connect(const std::shared_ptr<QueuePair>& a,
               const std::shared_ptr<QueuePair>& b);

}  // namespace rdma
}  // namespace kafkadirect
