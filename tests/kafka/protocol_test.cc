#include "kafka/protocol.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace kafkadirect {
namespace kafka {
namespace {

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char byte[3];
  for (uint8_t b : bytes) {
    std::snprintf(byte, sizeof(byte), "%02x", b);
    out += byte;
  }
  return out;
}

// `golden` pins the wire bytes peers depend on; decoding and re-encoding
// must reproduce them, so no field is dropped or reordered either way.
template <typename M>
void ExpectWire(const M& m, MsgType type, const std::string& golden) {
  SCOPED_TRACE(static_cast<int>(type));
  const std::vector<uint8_t> frame = Encode(m);
  EXPECT_EQ(Hex(frame), golden);
  EXPECT_EQ(PeekType(Slice(frame)), type);
  M decoded;
  ASSERT_TRUE(Decode(Slice(frame), &decoded).ok());
  EXPECT_EQ(Hex(Encode(decoded)), golden);
}

// Encoding into a recycled buffer gives the same bytes and keeps the
// buffer's storage (no reallocation when its capacity suffices).
template <typename M>
void ExpectWireIntoReuse(const M& m, const std::string& golden) {
  std::vector<uint8_t> reuse(512, 0xEE);
  const uint8_t* storage = reuse.data();
  const std::vector<uint8_t> frame = Encode(m, std::move(reuse));
  EXPECT_EQ(Hex(frame), golden);
  EXPECT_EQ(frame.data(), storage);
}

TEST(ProtocolTest, ProduceRequestRoundTrip) {
  ProduceRequest m;
  m.tp = {"orders", 3};
  m.acks = -1;
  m.batch = {1, 2, 3, 4, 5};
  auto bytes = Encode(m);
  EXPECT_EQ(PeekType(Slice(bytes)), MsgType::kProduceRequest);
  ProduceRequest out;
  ASSERT_TRUE(Decode(Slice(bytes), &out).ok());
  EXPECT_EQ(out.tp, m.tp);
  EXPECT_EQ(out.acks, -1);
  EXPECT_EQ(out.batch, m.batch);
}

TEST(ProtocolTest, ProduceResponseRoundTrip) {
  ProduceResponse m{ErrorCode::kNotLeader, 12345};
  ProduceResponse out;
  ASSERT_TRUE(Decode(Slice(Encode(m)), &out).ok());
  EXPECT_EQ(out.error, ErrorCode::kNotLeader);
  EXPECT_EQ(out.base_offset, 12345);
}

TEST(ProtocolTest, FetchRoundTrip) {
  FetchRequest m;
  m.tp = {"t", 0};
  m.offset = 999;
  m.max_bytes = 4096;
  m.max_wait_ns = 5000000;
  m.is_replica = true;
  m.replica_id = 2;
  FetchRequest out;
  ASSERT_TRUE(Decode(Slice(Encode(m)), &out).ok());
  EXPECT_EQ(out.offset, 999);
  EXPECT_EQ(out.max_bytes, 4096u);
  EXPECT_EQ(out.max_wait_ns, 5000000);
  EXPECT_TRUE(out.is_replica);
  EXPECT_EQ(out.replica_id, 2);

  FetchResponse resp;
  resp.error = ErrorCode::kNone;
  resp.high_watermark = 10;
  resp.log_end_offset = 12;
  resp.batches = {9, 9, 9};
  FetchResponse rout;
  ASSERT_TRUE(Decode(Slice(Encode(resp)), &rout).ok());
  EXPECT_EQ(rout.high_watermark, 10);
  EXPECT_EQ(rout.log_end_offset, 12);
  EXPECT_EQ(rout.batches, resp.batches);
}

TEST(ProtocolTest, MetadataRoundTrip) {
  MetadataResponse m;
  m.num_partitions = 3;
  m.leader_broker = {0, 1, 2};
  MetadataResponse out;
  ASSERT_TRUE(Decode(Slice(Encode(m)), &out).ok());
  EXPECT_EQ(out.leader_broker, m.leader_broker);
}

TEST(ProtocolTest, RdmaProduceAccessRoundTrip) {
  RdmaProduceAccessRequest req;
  req.tp = {"topic", 1};
  req.exclusive = false;
  req.stale_file_id = 7;
  RdmaProduceAccessRequest rout;
  ASSERT_TRUE(Decode(Slice(Encode(req)), &rout).ok());
  EXPECT_FALSE(rout.exclusive);
  EXPECT_EQ(rout.stale_file_id, 7);

  RdmaProduceAccessResponse resp;
  resp.file_id = 42;
  resp.addr = 0xDEADBEEF000;
  resp.rkey = 17;
  resp.capacity = 1 << 30;
  resp.write_pos = 4096;
  resp.atomic_addr = 0xABC0;
  resp.atomic_rkey = 18;
  resp.next_order = 5;
  RdmaProduceAccessResponse pout;
  ASSERT_TRUE(Decode(Slice(Encode(resp)), &pout).ok());
  EXPECT_EQ(pout.file_id, 42);
  EXPECT_EQ(pout.addr, 0xDEADBEEF000u);
  EXPECT_EQ(pout.capacity, 1u << 30);
  EXPECT_EQ(pout.write_pos, 4096u);
  EXPECT_EQ(pout.atomic_addr, 0xABC0u);
  EXPECT_EQ(pout.next_order, 5);
}

TEST(ProtocolTest, RdmaConsumeAccessRoundTrip) {
  RdmaConsumeAccessResponse resp;
  resp.file_ref = 3;
  resp.addr = 123456;
  resp.rkey = 9;
  resp.start_pos = 100;
  resp.start_offset = 57;
  resp.last_readable = 5000;
  resp.is_mutable = true;
  resp.slot_index = 2;
  resp.slot_region_addr = 777;
  resp.slot_rkey = 10;
  RdmaConsumeAccessResponse out;
  ASSERT_TRUE(Decode(Slice(Encode(resp)), &out).ok());
  EXPECT_EQ(out.start_offset, 57);
  EXPECT_EQ(out.last_readable, 5000u);
  EXPECT_TRUE(out.is_mutable);
  EXPECT_EQ(out.slot_index, 2u);
  EXPECT_EQ(out.slot_region_addr, 777u);
}

TEST(ProtocolTest, ReplicaRdmaAccessRoundTrip) {
  ReplicaRdmaAccessResponse resp;
  resp.file_id = 11;
  resp.credits = 64;
  resp.capacity = 1024;
  ReplicaRdmaAccessResponse out;
  ASSERT_TRUE(Decode(Slice(Encode(resp)), &out).ok());
  EXPECT_EQ(out.file_id, 11);
  EXPECT_EQ(out.credits, 64u);
}

TEST(ProtocolTest, CommitOffsetRoundTrip) {
  CommitOffsetRequest req;
  req.tp = {"t", 0};
  req.group = "spark-engine";
  req.offset = 42;
  CommitOffsetRequest out;
  ASSERT_TRUE(Decode(Slice(Encode(req)), &out).ok());
  EXPECT_EQ(out.group, "spark-engine");
  EXPECT_EQ(out.offset, 42);
}

// Every message, every field set to a distinct non-default value.
TEST(ProtocolTest, GoldenWireBytesForEveryMessage) {
  // Field-by-field where a topic precedes another owning member: GCC 12
  // false-positives -Wmaybe-uninitialized on those aggregate initializers.
  ProduceRequest produce;
  produce.tp = {"orders", 7};
  produce.acks = -3;
  produce.batch = {0xB1, 0xB2, 0xB3};
  const std::string produce_hex =
      "0100060000006f726465727307000000fdff03000000b1b2b3";
  ExpectWire(produce, MsgType::kProduceRequest, produce_hex);
  const ProduceResponse produce_resp{ErrorCode::kNotLeader,
                                     0x0102030405060708};
  const std::string produce_resp_hex = "020002000807060504030201";
  ExpectWire(produce_resp, MsgType::kProduceResponse, produce_resp_hex);
  const FetchRequest fetch{.tp = {"t", 2},
                           .offset = 0x1122334455,
                           .max_bytes = 0xA0B0C0D0,
                           .max_wait_ns = 5000000,
                           .is_replica = true,
                           .replica_id = -5};
  const std::string fetch_hex =
      "03000100000074020000005544332211000000d0c0b0a0"
      "404b4c000000000001fbffffff";
  ExpectWire(fetch, MsgType::kFetchRequest, fetch_hex);
  const FetchResponse fetch_resp{ErrorCode::kOffsetOutOfRange, 41, 42,
                                 {0xC1, 0xC2}};
  const std::string fetch_resp_hex =
      "0400040029000000000000002a0000000000000002000000c1c2";
  ExpectWire(fetch_resp, MsgType::kFetchResponse, fetch_resp_hex);
  ExpectWire(MetadataRequest{"meta"}, MsgType::kMetadataRequest,
             "0500040000006d657461");
  ExpectWire(MetadataResponse{ErrorCode::kUnknownTopicOrPartition, 3,
                              {4, -1, 6}},
             MsgType::kMetadataResponse,
             "06000100030000000300000004000000ffffffff06000000");
  ExpectWire(RdmaProduceAccessRequest{.tp = {"p", 1},
                                      .exclusive = false,
                                      .stale_file_id = 0x0203,
                                      .broker_qp = 0x04050607,
                                      .rotate_target = 0x08090A0B0C0D0E0F},
             MsgType::kRdmaProduceAccessRequest,
             "0700010000007001000000000302070605040f0e0d0c0b0a0908");
  ExpectWire(RdmaProduceAccessResponse{ErrorCode::kRdmaAccessDenied, 11,
                                       0xDEADBEEF000, 13, 1ull << 30, 4096,
                                       0xABC0, 17, 19},
             MsgType::kRdmaProduceAccessResponse,
             "080006000b0000f0eedbea0d00000d0000000000004000000000001000000000"
             "0000c0ab000000000000110000001300");
  ExpectWire(RdmaConsumeAccessRequest{{"c", 3}, 57},
             MsgType::kRdmaConsumeAccessRequest,
             "09000100000063030000003900000000000000");
  ExpectWire(RdmaConsumeAccessResponse{ErrorCode::kCorruptMessage, 3, 123456,
                                       9, 100, 57, 5000, true, 2, 777, 10},
             MsgType::kRdmaConsumeAccessResponse,
             "0a0003000300000040e201000000000009000000640000000000000039000000"
             "000000008813000000000000010200000009030000000000000a000000");
  ExpectWire(RdmaRingConsumeAccessRequest{{"ring", 4}, 21, 22, 23, 24, 25, 26,
                                          27},
             MsgType::kRdmaRingConsumeAccessRequest,
             "15000400000072696e6704000000150000000000000016000000170000000000"
             "00001800000019000000000000001a000000000000001b000000");
  ExpectWire(RdmaRingConsumeAccessResponse{ErrorCode::kRecordTooLarge, 31, 32,
                                           33, 34},
             MsgType::kRdmaRingConsumeAccessResponse,
             "160005001f0000002000000000000000210000000000000022000000");
  ExpectWire(RdmaUnregisterRequest{{"u", 5}, 35},
             MsgType::kRdmaUnregisterRequest, "0b0001000000750500000023000000");
  ExpectWire(RdmaUnregisterResponse{ErrorCode::kInvalidRequest},
             MsgType::kRdmaUnregisterResponse, "0c000700");
  ExpectWire(ReplicaRdmaAccessRequest{{"r", 6}, 36},
             MsgType::kReplicaRdmaAccessRequest, "0d000100000072060000002400");
  ExpectWire(ReplicaRdmaAccessResponse{ErrorCode::kTimedOut, 37, 38, 39, 40,
                                       41, 42},
             MsgType::kReplicaRdmaAccessResponse,
             "0e00080025002600000000000000270000002800000000000000290000000000"
             "00002a000000");
  CommitOffsetRequest commit;
  commit.tp = {"t", 0};
  commit.group = "spark-engine";
  commit.offset = 43;
  ExpectWire(commit, MsgType::kCommitOffsetRequest,
             "0f000100000074000000000c000000737061726b2d656e67696e652b00000000"
             "000000");
  ExpectWire(CommitOffsetResponse{ErrorCode::kResourceExhausted},
             MsgType::kCommitOffsetResponse, "10000900");
  RdmaCommitAccessRequest commit_access;
  commit_access.tp = {"t", 1};
  commit_access.group = "g1";
  ExpectWire(commit_access, MsgType::kRdmaCommitAccessRequest,
             "1100010000007401000000020000006731");
  ExpectWire(RdmaCommitAccessResponse{ErrorCode::kNotController, 44, 45},
             MsgType::kRdmaCommitAccessResponse,
             "12000a002c000000000000002d000000");
  FetchCommittedOffsetRequest fetch_committed;
  fetch_committed.tp = {"t", 2};
  fetch_committed.group = "g2";
  ExpectWire(fetch_committed, MsgType::kFetchCommittedOffsetRequest,
             "1300010000007402000000020000006732");
  ExpectWire(FetchCommittedOffsetResponse{ErrorCode::kRebalanceInProgress, 46},
             MsgType::kFetchCommittedOffsetResponse,
             "14000b002e00000000000000");
  ExpectWire(ControllerHeartbeatRequest{47, 2},
             MsgType::kControllerHeartbeatRequest,
             "17002f0000000000000002000000");
  ExpectWire(ControllerHeartbeatResponse{ErrorCode::kUnknownMember, 48},
             MsgType::kControllerHeartbeatResponse, "18000c003000000000000000");
  LeaderAndIsrRequest leader_and_isr;
  leader_and_isr.tp = {"l", 8};
  leader_and_isr.leader_id = 1;
  leader_and_isr.leader_node = 0x0A0B0C0D;
  leader_and_isr.leader_epoch = 49;
  leader_and_isr.from_controller = false;
  leader_and_isr.isr = {1, 2};
  leader_and_isr.replicas = {1, 2, 3};
  ExpectWire(leader_and_isr, MsgType::kLeaderAndIsrRequest,
             "1900010000006c08000000010000000d0c0b0a00000000310000000000000000"
             "02000000010000000200000003000000010000000200000003000000");
  ExpectWire(LeaderAndIsrResponse{ErrorCode::kIllegalGeneration},
             MsgType::kLeaderAndIsrResponse, "1a000d00");
  ExpectWire(LogInfoRequest{{"li", 9}}, MsgType::kLogInfoRequest,
             "1b00020000006c6909000000");
  ExpectWire(LogInfoResponse{ErrorCode::kFencedLeaderEpoch, 50, 51},
             MsgType::kLogInfoResponse,
             "1c000e0032000000000000003300000000000000");
  ExpectWire(JoinGroupRequest{"grp", "m-1", "topic"},
             MsgType::kJoinGroupRequest,
             "1d0003000000677270030000006d2d3105000000746f706963");
  ExpectWire(JoinGroupResponse{ErrorCode::kNotLeader, 52},
             MsgType::kJoinGroupResponse, "1e0002003400000000000000");
  ExpectWire(SyncGroupRequest{"grp", "m-2", 53}, MsgType::kSyncGroupRequest,
             "1f0003000000677270030000006d2d323500000000000000");
  ExpectWire(SyncGroupResponse{ErrorCode::kRebalanceInProgress, 54,
                               "sync-topic", {0, 3, 5}},
             MsgType::kSyncGroupResponse,
             "20000b0036000000000000000a00000073796e632d746f706963030000000000"
             "00000300000005000000");
  ExpectWire(GroupHeartbeatRequest{"grp", "m-3", 55},
             MsgType::kGroupHeartbeatRequest,
             "210003000000677270030000006d2d333700000000000000");
  ExpectWire(GroupHeartbeatResponse{ErrorCode::kUnknownMember},
             MsgType::kGroupHeartbeatResponse, "22000c00");
  ExpectWire(LeaveGroupRequest{"grp", "m-4"}, MsgType::kLeaveGroupRequest,
             "230003000000677270030000006d2d34");
  ExpectWire(LeaveGroupResponse{ErrorCode::kIllegalGeneration},
             MsgType::kLeaveGroupResponse, "24000d00");

  // The data-path messages also encode into recycled buffers ...
  ExpectWireIntoReuse(produce, produce_hex);
  ExpectWireIntoReuse(produce_resp, produce_resp_hex);
  ExpectWireIntoReuse(fetch, fetch_hex);
  ExpectWireIntoReuse(fetch_resp, fetch_resp_hex);
  // ... and decode their payloads into pooled buffers.
  BufferPool pool;
  pool.Release(std::vector<uint8_t>(512));
  pool.Release(std::vector<uint8_t>(512));
  ProduceRequest pooled_produce;
  ASSERT_TRUE(Decode(Slice(Encode(produce)), &pooled_produce, &pool).ok());
  EXPECT_EQ(Hex(Encode(pooled_produce)), produce_hex);
  FetchResponse pooled_fetch;
  ASSERT_TRUE(Decode(Slice(Encode(fetch_resp)), &pooled_fetch, &pool).ok());
  EXPECT_EQ(Hex(Encode(pooled_fetch)), fetch_resp_hex);
  EXPECT_EQ(pool.stats().hits, 2u);
}

TEST(ProtocolTest, TypeMismatchRejected) {
  ProduceRequest m;
  m.tp = {"t", 0};
  auto bytes = Encode(m);
  FetchRequest wrong;
  EXPECT_FALSE(Decode(Slice(bytes), &wrong).ok());
}

TEST(ProtocolTest, TruncatedFrameRejected) {
  ProduceRequest m;
  m.tp = {"topic-name", 0};
  m.batch = std::vector<uint8_t>(100, 1);
  auto bytes = Encode(m);
  ProduceRequest out;
  EXPECT_FALSE(Decode(Slice(bytes.data(), bytes.size() - 50), &out).ok());
}

// List counts come off the wire: one larger than the bytes left in the
// frame fails the decode before anything is allocated for it.
TEST(ProtocolTest, ListCountBeyondFrameRejected) {
  std::vector<uint8_t> frame =
      Encode(MetadataResponse{ErrorCode::kNone, 1, {}});
  ASSERT_EQ(frame.size(), 12u);
  EncodeFixed32(&frame[8], 1u << 24);
  MetadataResponse metadata;
  EXPECT_TRUE(Decode(Slice(frame), &metadata).IsOutOfRange());
  EXPECT_TRUE(metadata.leader_broker.empty());

  frame = Encode(SyncGroupResponse{ErrorCode::kNone, 1, "t", {}});
  EncodeFixed32(&frame[frame.size() - 4], 0xFFFFFFFF);
  SyncGroupResponse sync;
  EXPECT_TRUE(Decode(Slice(frame), &sync).IsOutOfRange());
  EXPECT_TRUE(sync.partitions.empty());
}

TEST(ProtocolTest, ErrorCodeNames) {
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kNone), "None");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kNotLeader), "NotLeader");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kRdmaAccessDenied),
               "RdmaAccessDenied");
}

TEST(ProtocolTest, TopicPartitionOrdering) {
  TopicPartitionId a{"a", 1}, b{"a", 2}, c{"b", 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a.ToString(), "a-1");
}

}  // namespace
}  // namespace kafka
}  // namespace kafkadirect
