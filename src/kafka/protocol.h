// Kafka wire protocol (simplified): framed request/response messages
// exchanged over a MessageStream. KafkaDirect adds the RDMA-access
// handshake messages (§4.2.2 "getting RDMA access", §4.4.2) while keeping
// every original request intact — backward compatibility is a design goal
// of the paper.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/buffer_pool.h"
#include "common/byte_order.h"
#include "common/status.h"

namespace kafkadirect {
namespace kafka {

/// The broker's TCP service port.
constexpr uint16_t kKafkaPort = 9092;

enum class MsgType : uint16_t {
  kProduceRequest = 1,
  kProduceResponse,
  kFetchRequest,
  kFetchResponse,
  kMetadataRequest,
  kMetadataResponse,
  kRdmaProduceAccessRequest,
  kRdmaProduceAccessResponse,
  kRdmaConsumeAccessRequest,
  kRdmaConsumeAccessResponse,
  kRdmaUnregisterRequest,
  kRdmaUnregisterResponse,
  kReplicaRdmaAccessRequest,
  kReplicaRdmaAccessResponse,
  kCommitOffsetRequest,
  kCommitOffsetResponse,
  kRdmaCommitAccessRequest,
  kRdmaCommitAccessResponse,
  kFetchCommittedOffsetRequest,
  kFetchCommittedOffsetResponse,
  kRdmaRingConsumeAccessRequest,
  kRdmaRingConsumeAccessResponse,
  // --- cluster control plane (DESIGN.md §15); appended so every prior
  // message keeps its wire value ---
  kControllerHeartbeatRequest,
  kControllerHeartbeatResponse,
  kLeaderAndIsrRequest,
  kLeaderAndIsrResponse,
  kLogInfoRequest,
  kLogInfoResponse,
  kJoinGroupRequest,
  kJoinGroupResponse,
  kSyncGroupRequest,
  kSyncGroupResponse,
  kGroupHeartbeatRequest,
  kGroupHeartbeatResponse,
  kLeaveGroupRequest,
  kLeaveGroupResponse,
};

enum class ErrorCode : int16_t {
  kNone = 0,
  kUnknownTopicOrPartition,
  kNotLeader,
  kCorruptMessage,
  kOffsetOutOfRange,
  kRecordTooLarge,
  kRdmaAccessDenied,
  kInvalidRequest,
  kTimedOut,
  kResourceExhausted,  // admission control: retry after a backoff (§14)
  // --- cluster control plane (DESIGN.md §15) ---
  kNotController,          // group RPC sent to a non-controller broker
  kRebalanceInProgress,    // heartbeat during a rebalance: rejoin now
  kUnknownMember,          // member expired or never joined
  kIllegalGeneration,      // RPC carries a stale rebalance generation
  kFencedLeaderEpoch,      // request fenced by a newer partition leader
};

const char* ErrorCodeName(ErrorCode code);

/// Declares a wire message: its MsgType and its fields in wire order. The
/// Encode/Decode templates walk Fields(), so each layout is stated once.
#define KD_WIRE_MESSAGE(type, ...)                  \
  static constexpr MsgType kType = MsgType::type;   \
  auto Fields() { return std::tie(__VA_ARGS__); }   \
  auto Fields() const { return std::tie(__VA_ARGS__); }

struct TopicPartitionId {
  std::string topic;
  int32_t partition = 0;

  bool operator==(const TopicPartitionId&) const = default;
  bool operator<(const TopicPartitionId& o) const {
    if (topic != o.topic) return topic < o.topic;
    return partition < o.partition;
  }
  std::string ToString() const {
    return topic + "-" + std::to_string(partition);
  }
};

/// acks=-1 (all ISR), 0 (fire and forget), 1 (leader only).
struct ProduceRequest {
  TopicPartitionId tp;
  int16_t acks = -1;
  std::vector<uint8_t> batch;
  KD_WIRE_MESSAGE(kProduceRequest, tp, acks, batch)
};

struct ProduceResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t base_offset = -1;
  KD_WIRE_MESSAGE(kProduceResponse, error, base_offset)
};

struct FetchRequest {
  TopicPartitionId tp;
  int64_t offset = 0;
  uint32_t max_bytes = 1 << 20;
  /// Long-poll budget: 0 => respond immediately (possibly empty).
  int64_t max_wait_ns = 0;
  /// Replica fetches read up to LEO and carry the follower's identity so
  /// the leader can track ISR progress.
  bool is_replica = false;
  int32_t replica_id = -1;
  KD_WIRE_MESSAGE(kFetchRequest, tp, offset, max_bytes, max_wait_ns, is_replica,
                  replica_id)
};

struct FetchResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t high_watermark = 0;
  int64_t log_end_offset = 0;
  std::vector<uint8_t> batches;
  KD_WIRE_MESSAGE(kFetchResponse, error, high_watermark, log_end_offset,
                  batches)
};

struct MetadataRequest {
  std::string topic;
  KD_WIRE_MESSAGE(kMetadataRequest, topic)
};

struct MetadataResponse {
  ErrorCode error = ErrorCode::kNone;
  int32_t num_partitions = 0;
  std::vector<int32_t> leader_broker;  // one entry per partition
  KD_WIRE_MESSAGE(kMetadataResponse, error, num_partitions, leader_broker)
};

/// "Get RDMA produce address" (§4.2.2): grants write access to the head
/// file of a TP.
struct RdmaProduceAccessRequest {
  TopicPartitionId tp;
  bool exclusive = true;
  /// Set when re-requesting after the head file rolled or access was
  /// revoked; the broker releases state tied to the old file first.
  uint16_t stale_file_id = 0;
  /// Broker-side QP number of this producer's RC connection, so exclusive
  /// grants can be fenced when the QP disconnects (§4.2.2).
  uint32_t broker_qp = 0;
  /// On rotation: the file position this producer observed as the end of
  /// in-range claims (its own overflow claim start). The broker rotates
  /// once commits reach the smallest such target.
  uint64_t rotate_target = 0;
  KD_WIRE_MESSAGE(kRdmaProduceAccessRequest, tp, exclusive, stale_file_id,
                  broker_qp, rotate_target)
};

struct RdmaProduceAccessResponse {
  ErrorCode error = ErrorCode::kNone;
  uint16_t file_id = 0;     // goes into the WriteWithImm immediate data
  uint64_t addr = 0;        // virtual address of the head file
  uint32_t rkey = 0;
  uint64_t capacity = 0;    // full length of the preallocated file
  uint64_t write_pos = 0;   // current append position
  /// Shared mode: the 8-byte {order, offset} word for RDMA FAA (§4.2.2).
  uint64_t atomic_addr = 0;
  uint32_t atomic_rkey = 0;
  uint16_t next_order = 0;
  KD_WIRE_MESSAGE(kRdmaProduceAccessResponse, error, file_id, addr, rkey,
                  capacity, write_pos, atomic_addr, atomic_rkey, next_order)
};

/// "Get RDMA read access" for consumers (§4.4.2).
struct RdmaConsumeAccessRequest {
  TopicPartitionId tp;
  int64_t offset = 0;
  KD_WIRE_MESSAGE(kRdmaConsumeAccessRequest, tp, offset)
};

struct RdmaConsumeAccessResponse {
  ErrorCode error = ErrorCode::kNone;
  uint32_t file_ref = 0;     // broker-side handle for unregistration
  uint64_t addr = 0;         // virtual address of the file
  uint32_t rkey = 0;
  uint64_t start_pos = 0;    // file position of the requested offset
  int64_t start_offset = 0;  // Kafka offset at start_pos
  uint64_t last_readable = 0;  // snapshot: position after last visible byte
  bool is_mutable = false;   // head file?
  /// Metadata slot for mutable files: one 16-byte slot inside the
  /// consumer's contiguous slot region.
  uint32_t slot_index = 0;
  uint64_t slot_region_addr = 0;
  uint32_t slot_rkey = 0;
  KD_WIRE_MESSAGE(kRdmaConsumeAccessResponse, error, file_ref, addr, rkey,
                  start_pos, start_offset, last_readable, is_mutable,
                  slot_index, slot_region_addr, slot_rkey)
};

/// Ring-buffer Write consume (DESIGN.md §12): the consumer registers a
/// ring MR plus an 8-byte tail word, both broker-writable; the broker
/// pushes committed bytes into the ring and periodically Writes the total
/// pushed byte count into the tail word. The response carries the broker's
/// head word — an 8-byte broker-side slot the consumer Writes its consumed
/// byte count into, which is the (amortized) buffer-reclamation channel.
struct RdmaRingConsumeAccessRequest {
  TopicPartitionId tp;
  int64_t offset = 0;
  /// Broker-side QP number of this consumer's RC connection (the QP the
  /// broker pushes ring writes on).
  uint32_t broker_qp = 0;
  uint64_t ring_addr = 0;
  uint32_t ring_rkey = 0;
  uint64_t ring_capacity = 0;
  uint64_t tail_addr = 0;
  uint32_t tail_rkey = 0;
  KD_WIRE_MESSAGE(kRdmaRingConsumeAccessRequest, tp, offset, broker_qp,
                  ring_addr, ring_rkey, ring_capacity, tail_addr, tail_rkey)
};

struct RdmaRingConsumeAccessResponse {
  ErrorCode error = ErrorCode::kNone;
  uint32_t grant_ref = 0;     // broker-side handle for the push session
  int64_t start_offset = 0;   // Kafka offset of the first pushed byte
  uint64_t head_addr = 0;     // broker-side consumed-count word
  uint32_t head_rkey = 0;
  KD_WIRE_MESSAGE(kRdmaRingConsumeAccessResponse, error, grant_ref,
                  start_offset, head_addr, head_rkey)
};

/// Consumer tells the broker a file can be unregistered (§4.4.2).
struct RdmaUnregisterRequest {
  TopicPartitionId tp;
  uint32_t file_ref = 0;
  KD_WIRE_MESSAGE(kRdmaUnregisterRequest, tp, file_ref)
};

struct RdmaUnregisterResponse {
  ErrorCode error = ErrorCode::kNone;
  KD_WIRE_MESSAGE(kRdmaUnregisterResponse, error)
};

/// Push-replication handshake: the leader asks a follower for RDMA write
/// access to the replica's head file plus a credit allowance (§4.3.2).
struct ReplicaRdmaAccessRequest {
  TopicPartitionId tp;
  uint16_t stale_file_id = 0;
  KD_WIRE_MESSAGE(kReplicaRdmaAccessRequest, tp, stale_file_id)
};

struct ReplicaRdmaAccessResponse {
  ErrorCode error = ErrorCode::kNone;
  uint16_t file_id = 0;
  uint64_t addr = 0;
  uint32_t rkey = 0;
  uint64_t capacity = 0;
  uint64_t write_pos = 0;
  uint32_t credits = 0;  // max outstanding replication writes
  KD_WIRE_MESSAGE(kReplicaRdmaAccessResponse, error, file_id, addr, rkey,
                  capacity, write_pos, credits)
};

/// Consumer-group offset commit (used by the streaming workload, §5.4 —
/// the paper notes KafkaDirect still issues these over TCP).
struct CommitOffsetRequest {
  TopicPartitionId tp;
  std::string group;
  int64_t offset = 0;
  KD_WIRE_MESSAGE(kCommitOffsetRequest, tp, group, offset)
};

struct CommitOffsetResponse {
  ErrorCode error = ErrorCode::kNone;
  KD_WIRE_MESSAGE(kCommitOffsetResponse, error)
};

/// EXTENSION (paper §5.4 future work): grants a consumer group an
/// RDMA-writable 8-byte slot holding its committed offset, so offset
/// commits become one-sided writes instead of TCP round trips.
struct RdmaCommitAccessRequest {
  TopicPartitionId tp;
  std::string group;
  KD_WIRE_MESSAGE(kRdmaCommitAccessRequest, tp, group)
};

struct RdmaCommitAccessResponse {
  ErrorCode error = ErrorCode::kNone;
  uint64_t slot_addr = 0;
  uint32_t slot_rkey = 0;
  KD_WIRE_MESSAGE(kRdmaCommitAccessResponse, error, slot_addr, slot_rkey)
};

struct FetchCommittedOffsetRequest {
  TopicPartitionId tp;
  std::string group;
  KD_WIRE_MESSAGE(kFetchCommittedOffsetRequest, tp, group)
};

struct FetchCommittedOffsetResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t offset = -1;
  KD_WIRE_MESSAGE(kFetchCommittedOffsetResponse, error, offset)
};

// --- cluster control plane (DESIGN.md §15) ---

/// Controller -> broker liveness probe. A response carrying a higher term
/// deposes the sender; a request carrying a higher term installs the
/// sender as the receiver's controller.
struct ControllerHeartbeatRequest {
  int64_t term = 0;
  int32_t controller_id = -1;
  KD_WIRE_MESSAGE(kControllerHeartbeatRequest, term, controller_id)
};

struct ControllerHeartbeatResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t term = 0;  // receiver's view, so a stale controller steps down
  KD_WIRE_MESSAGE(kControllerHeartbeatResponse, error, term)
};

/// Leadership/ISR install, broadcast by the controller to every alive
/// broker (every broker mirrors the full assignment map so any one of
/// them can take over as controller). Leaders also send this to the
/// controller (`from_controller = false`) to report ISR shrink/expand.
struct LeaderAndIsrRequest {
  TopicPartitionId tp;
  int32_t leader_id = -1;
  uint64_t leader_node = 0;   // net::NodeId of the leader
  int64_t leader_epoch = 0;
  bool from_controller = true;
  std::vector<int32_t> isr;       // includes the leader
  std::vector<int32_t> replicas;  // includes the leader
  KD_WIRE_MESSAGE(kLeaderAndIsrRequest, tp, leader_id, leader_node,
                  leader_epoch, from_controller, isr, replicas)
};

struct LeaderAndIsrResponse {
  ErrorCode error = ErrorCode::kNone;
  KD_WIRE_MESSAGE(kLeaderAndIsrResponse, error)
};

/// Controller -> ISR member during failover: report log progress so the
/// controller elects the candidate with the longest log.
struct LogInfoRequest {
  TopicPartitionId tp;
  KD_WIRE_MESSAGE(kLogInfoRequest, tp)
};

struct LogInfoResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t log_end_offset = -1;
  int64_t high_watermark = -1;
  KD_WIRE_MESSAGE(kLogInfoResponse, error, log_end_offset, high_watermark)
};

/// Consumer-group membership (join/sync/heartbeat/leave). The coordinator
/// lives on the controller broker; joins park until the rebalance
/// generation forms, then sync fetches the member's assignment.
struct JoinGroupRequest {
  std::string group;
  std::string member;
  std::string topic;  // subscription (one topic per group in this model)
  KD_WIRE_MESSAGE(kJoinGroupRequest, group, member, topic)
};

struct JoinGroupResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t generation = 0;
  KD_WIRE_MESSAGE(kJoinGroupResponse, error, generation)
};

struct SyncGroupRequest {
  std::string group;
  std::string member;
  int64_t generation = 0;
  KD_WIRE_MESSAGE(kSyncGroupRequest, group, member, generation)
};

struct SyncGroupResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t generation = 0;
  std::string topic;
  std::vector<int32_t> partitions;  // this member's assignment
  KD_WIRE_MESSAGE(kSyncGroupResponse, error, generation, topic, partitions)
};

struct GroupHeartbeatRequest {
  std::string group;
  std::string member;
  int64_t generation = 0;
  KD_WIRE_MESSAGE(kGroupHeartbeatRequest, group, member, generation)
};

struct GroupHeartbeatResponse {
  ErrorCode error = ErrorCode::kNone;
  KD_WIRE_MESSAGE(kGroupHeartbeatResponse, error)
};

struct LeaveGroupRequest {
  std::string group;
  std::string member;
  KD_WIRE_MESSAGE(kLeaveGroupRequest, group, member)
};

struct LeaveGroupResponse {
  ErrorCode error = ErrorCode::kNone;
  KD_WIRE_MESSAGE(kLeaveGroupResponse, error)
};

/// A frame is MsgType (u16) followed by the message body.
MsgType PeekType(Slice frame);

template <typename M>
concept WireMessage = requires(M& m) {
  { M::kType } -> std::convertible_to<MsgType>;
  m.Fields();
};

// One size/put/get helper per field type. Scalars (fixed-width integers,
// bool, ErrorCode) travel little-endian at their own width; strings and
// byte payloads carry a u32 length, i32 lists a u32 count.
namespace wire {

template <typename T>
concept Scalar = std::is_integral_v<T> || std::is_enum_v<T>;

template <Scalar T>
constexpr size_t Size(T) { return sizeof(T); }
inline size_t Size(const std::string& s) { return 4 + s.size(); }
inline size_t Size(const std::vector<uint8_t>& b) { return 4 + b.size(); }
inline size_t Size(const std::vector<int32_t>& v) { return 4 + 4 * v.size(); }
inline size_t Size(const TopicPartitionId& tp) { return Size(tp.topic) + 4; }

template <Scalar T>
void Put(BinaryWriter* w, T v) {
  if constexpr (sizeof(T) == 1) {
    w->PutU8(static_cast<uint8_t>(v));
  } else if constexpr (sizeof(T) == 2) {
    w->PutU16(static_cast<uint16_t>(v));
  } else if constexpr (sizeof(T) == 4) {
    w->PutU32(static_cast<uint32_t>(v));
  } else {
    static_assert(sizeof(T) == 8);
    w->PutU64(static_cast<uint64_t>(v));
  }
}
inline void Put(BinaryWriter* w, const std::string& s) { w->PutString(s); }
inline void Put(BinaryWriter* w, const std::vector<uint8_t>& b) {
  w->PutBytes(Slice(b));
}
inline void Put(BinaryWriter* w, const std::vector<int32_t>& v) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  for (int32_t x : v) w->PutI32(x);
}
inline void Put(BinaryWriter* w, const TopicPartitionId& tp) {
  w->PutString(tp.topic);
  w->PutI32(tp.partition);
}

template <Scalar T>
Status Get(BinaryReader* r, T* out, BufferPool*) {
  Slice raw;
  KD_RETURN_IF_ERROR(r->GetRaw(sizeof(T), &raw));
  uint64_t v = 0;
  if constexpr (sizeof(T) == 1) {
    v = raw[0];
  } else if constexpr (sizeof(T) == 2) {
    v = DecodeFixed16(raw.data());
  } else if constexpr (sizeof(T) == 4) {
    v = DecodeFixed32(raw.data());
  } else {
    v = DecodeFixed64(raw.data());
  }
  *out = static_cast<T>(v);
  return Status::OK();
}
inline Status Get(BinaryReader* r, std::string* s, BufferPool*) {
  return r->GetString(s);
}
/// Copies the payload out of the frame, into a pooled buffer when given.
inline Status Get(BinaryReader* r, std::vector<uint8_t>* b, BufferPool* pool) {
  Slice view;
  KD_RETURN_IF_ERROR(r->GetBytes(&view));
  if (pool == nullptr) {
    *b = view.ToVector();
  } else {
    *b = pool->Acquire(view.size());
    if (!view.empty()) std::memcpy(b->data(), view.data(), view.size());
  }
  return Status::OK();
}
/// The count comes off the wire: it must fit the bytes left in the frame
/// before anything is allocated for it.
inline Status Get(BinaryReader* r, std::vector<int32_t>* v, BufferPool* pool) {
  uint32_t n = 0;
  KD_RETURN_IF_ERROR(r->GetU32(&n));
  if (n > r->remaining() / 4) {
    return Status::OutOfRange("i32 list count exceeds the frame");
  }
  v->resize(n);
  for (int32_t& x : *v) KD_RETURN_IF_ERROR(Get(r, &x, pool));
  return Status::OK();
}
inline Status Get(BinaryReader* r, TopicPartitionId* tp, BufferPool* pool) {
  KD_RETURN_IF_ERROR(r->GetString(&tp->topic));
  return Get(r, &tp->partition, pool);
}

}  // namespace wire

/// Encodes `m` as MsgType (u16) then its fields in wire order. `reuse`
/// supplies the storage (cleared first), typically a pooled buffer whose
/// capacity survives from an earlier frame; the exact frame size is
/// reserved up front, so a payload is copied once.
template <WireMessage M>
std::vector<uint8_t> Encode(const M& m, std::vector<uint8_t> reuse = {}) {
  const size_t size = std::apply(
      [](const auto&... f) { return (size_t{2} + ... + wire::Size(f)); },
      m.Fields());
  BinaryWriter w(std::move(reuse), size);
  w.PutU16(static_cast<uint16_t>(M::kType));
  std::apply([&w](const auto&... f) { (wire::Put(&w, f), ...); },
             m.Fields());
  return w.Release();
}

/// Decodes a frame of M's type. With a `pool`, a byte payload (batch /
/// batches) lands in a recycled buffer instead of a fresh allocation.
template <WireMessage M>
Status Decode(Slice frame, M* m, BufferPool* pool = nullptr) {
  BinaryReader r(frame);
  uint16_t type = 0;
  KD_RETURN_IF_ERROR(r.GetU16(&type));
  if (type != static_cast<uint16_t>(M::kType)) {
    return Status::InvalidArgument("unexpected message type");
  }
  Status st;
  std::apply(
      [&](auto&... f) { (void)((st = wire::Get(&r, &f, pool)).ok() && ...); },
      m->Fields());
  return st;
}

}  // namespace kafka
}  // namespace kafkadirect
