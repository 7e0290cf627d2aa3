// RDMA consume datapath (§4.4.2): one-sided reads, metadata slots, partial
// record reassembly, immutable-file walks, and broker-CPU offload.
#include <gtest/gtest.h>

#include "kd_test_util.h"

namespace kafkadirect {
namespace kd {
namespace {

using kafka::OwnedRecord;
using kafka::TopicPartitionId;

// Preloads `n` records of `size` bytes through the RDMA produce path.
sim::Co<void> Preload(KdClusterTest* t, TopicPartitionId tp, int n,
                      size_t size, bool* done) {
  RdmaProducer producer(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                        RdmaProducerConfig{.exclusive = true,
                                           .max_inflight = 16});
  KD_CHECK((co_await producer.Connect(t->Leader(tp), tp)).ok());
  std::string v(size, 'd');
  for (int i = 0; i < n; i++) {
    std::string payload = "record-" + std::to_string(i) + "-" + v;
    KD_CHECK(
        (co_await producer.ProduceAsync(Slice("k", 1), Slice(payload)))
            .ok());
  }
  KD_CHECK((co_await producer.Flush()).ok());
  producer.Close();
  *done = true;
}

TEST_F(KdClusterTest, ConsumerReadsPreloadedRecords) {
  Boot(1, 1, 1, true, false, /*rdma_consume=*/true);
  TopicPartitionId tp{"t", 0};
  bool loaded = false;
  sim::Spawn(sim_, Preload(this, tp, 50, 64, &loaded));
  RunToFlag(&loaded);

  std::vector<OwnedRecord> got;
  bool done = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp,
                std::vector<OwnedRecord>* got, bool* done) -> sim::Co<void> {
    RdmaConsumer consumer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->Leader(tp))).ok());
    KD_CHECK((co_await consumer.Subscribe(tp, 0)).ok());
    while (got->size() < 50) {
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok()) << records.status().ToString();
      if (records.value().empty()) break;
      for (auto& r : records.value()) got->push_back(std::move(r));
    }
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &got, &done));
  RunToFlag(&done);
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; i++) {
    EXPECT_EQ(got[i].offset, i);
    EXPECT_TRUE(got[i].value.rfind("record-" + std::to_string(i) + "-", 0) ==
                0)
        << got[i].value;
  }
}

TEST_F(KdClusterTest, ConsumeDoesNotTouchBrokerWorkers) {
  // The whole point of §4.4: fetches are served by the RNIC, not the CPU.
  Boot(1, 1, 1, true, false, true);
  TopicPartitionId tp{"t", 0};
  bool loaded = false;
  sim::Spawn(sim_, Preload(this, tp, 100, 128, &loaded));
  RunToFlag(&loaded);
  uint64_t fetches_before = Leader(tp)->stats().fetch_requests;

  bool done = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp,
                bool* done) -> sim::Co<void> {
    RdmaConsumer consumer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->Leader(tp))).ok());
    KD_CHECK((co_await consumer.Subscribe(tp, 0)).ok());
    size_t n = 0;
    while (n < 100) {
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok());
      if (records.value().empty()) break;
      n += records.value().size();
    }
    KD_CHECK(n == 100);
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &done));
  RunToFlag(&done);
  EXPECT_EQ(Leader(tp)->stats().fetch_requests, fetches_before);
}

TEST_F(KdClusterTest, ConsumeLatencyMatchesPaper) {
  // Paper §5.3: ~4.2 us per record once access is set up (preloaded file).
  Boot(1, 1, 1, true, false, true);
  TopicPartitionId tp{"t", 0};
  bool loaded = false;
  sim::Spawn(sim_, Preload(this, tp, 200, 64, &loaded));
  RunToFlag(&loaded);

  Histogram lat;
  bool done = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, Histogram* lat,
                bool* done) -> sim::Co<void> {
    RdmaConsumer consumer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->Leader(tp))).ok());
    KD_CHECK((co_await consumer.Subscribe(tp, 0)).ok());
    size_t n = 0;
    while (n < 200) {
      sim::TimeNs start = t->sim_.Now();
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok());
      if (records.value().empty()) break;
      // Per-poll round trip: one 2 KiB RDMA Read plus client processing —
      // the paper's ~4.2 us record-fetch latency (§5.3).
      lat->Add(t->sim_.Now() - start);
      n += records.value().size();
    }
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &lat, &done));
  RunToFlag(&done);
  EXPECT_LT(lat.Median(), Micros(12));
  EXPECT_GT(lat.Median(), Micros(2));
}

TEST_F(KdClusterTest, EmptyPollUsesOneMetadataRead) {
  // Paper §5.3: an "empty fetch" is one 2.5 us RDMA Read of the metadata
  // slots; the broker CPU is not involved.
  Boot(1, 1, 1, true, false, true);
  TopicPartitionId tp{"t", 0};
  bool loaded = false;
  sim::Spawn(sim_, Preload(this, tp, 3, 64, &loaded));
  RunToFlag(&loaded);

  bool done = false;
  uint64_t meta_reads = 0;
  sim::TimeNs empty_poll_time = 0;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, uint64_t* meta_reads,
                sim::TimeNs* empty_poll_time, bool* done) -> sim::Co<void> {
    RdmaConsumer consumer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->Leader(tp))).ok());
    KD_CHECK((co_await consumer.Subscribe(tp, 0)).ok());
    // Drain the 3 records.
    size_t n = 0;
    while (n < 3) {
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok());
      n += records.value().size();
    }
    uint64_t before = consumer.metadata_reads();
    sim::TimeNs start = t->sim_.Now();
    auto empty = co_await consumer.Poll(tp);
    KD_CHECK(empty.ok());
    KD_CHECK(empty.value().empty());
    *empty_poll_time = t->sim_.Now() - start;
    *meta_reads = consumer.metadata_reads() - before;
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &meta_reads, &empty_poll_time, &done));
  RunToFlag(&done);
  EXPECT_EQ(meta_reads, 1u);
  EXPECT_LT(empty_poll_time, Micros(6));
  EXPECT_GT(empty_poll_time, Micros(1));
}

TEST_F(KdClusterTest, ConsumerSeesNewRecordsViaMetadataSlot) {
  // End-to-end: producer appends while the consumer is live; the consumer
  // discovers the new data purely through its metadata slot.
  Boot(1, 1, 1, true, false, true);
  TopicPartitionId tp{"t", 0};
  bool done = false;
  std::vector<OwnedRecord> got;
  auto consume = [](KdClusterTest* t, TopicPartitionId tp,
                    std::vector<OwnedRecord>* got,
                    bool* done) -> sim::Co<void> {
    RdmaConsumer consumer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->Leader(tp))).ok());
    KD_CHECK((co_await consumer.Subscribe(tp, 0)).ok());
    while (got->size() < 10) {
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok());
      for (auto& r : records.value()) got->push_back(std::move(r));
      if (records.value().empty()) {
        co_await sim::Delay(t->sim_, Micros(50));  // poll interval
      }
    }
    *done = true;
  };
  auto produce = [](KdClusterTest* t, TopicPartitionId tp) -> sim::Co<void> {
    co_await sim::Delay(t->sim_, Millis(1));
    RdmaProducer producer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_, RdmaProducerConfig{});
    KD_CHECK((co_await producer.Connect(t->Leader(tp), tp)).ok());
    for (int i = 0; i < 10; i++) {
      std::string v = "live-" + std::to_string(i);
      KD_CHECK((co_await producer.Produce(Slice("k", 1), Slice(v))).ok());
      co_await sim::Delay(t->sim_, Micros(200));
    }
  };
  sim::Spawn(sim_, consume(this, tp, &got, &done));
  sim::Spawn(sim_, produce(this, tp));
  RunToFlag(&done);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(got[i].value, "live-" + std::to_string(i));
  }
}

TEST_F(KdClusterTest, ConsumerWalksSealedFiles) {
  // Multi-segment topic: the consumer drains each immutable file, swaps
  // access (unregister + re-request), and continues into the head file.
  Boot(1, 1, 1, true, false, true, /*segment_capacity=*/32 * kKiB);
  TopicPartitionId tp{"t", 0};
  bool loaded = false;
  sim::Spawn(sim_, Preload(this, tp, 60, 2048, &loaded));
  RunToFlag(&loaded);
  ASSERT_GT(Leader(tp)->GetPartition(tp)->log.segments().size(), 3u);

  std::vector<OwnedRecord> got;
  bool done = false;
  uint64_t switches = 0;
  auto run = [](KdClusterTest* t, TopicPartitionId tp,
                std::vector<OwnedRecord>* got, uint64_t* switches,
                bool* done) -> sim::Co<void> {
    RdmaConsumer consumer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->Leader(tp))).ok());
    KD_CHECK((co_await consumer.Subscribe(tp, 0)).ok());
    while (got->size() < 60) {
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok()) << records.status().ToString();
      if (records.value().empty()) break;
      for (auto& r : records.value()) got->push_back(std::move(r));
    }
    *switches = consumer.file_switches();
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &got, &switches, &done));
  RunToFlag(&done);
  ASSERT_EQ(got.size(), 60u);
  for (int i = 0; i < 60; i++) EXPECT_EQ(got[i].offset, i);
  EXPECT_GT(switches, 2u);  // walked several sealed files
}

TEST_F(KdClusterTest, LargeRecordsReassembledAcrossReads) {
  // 64 KiB records with a 2 KiB fetch size: the consumer must reassemble
  // partial batches (and may adaptively size the completing read).
  Boot(1, 1, 1, true, false, true);
  TopicPartitionId tp{"t", 0};
  bool loaded = false;
  sim::Spawn(sim_, Preload(this, tp, 8, 64 * kKiB, &loaded));
  RunToFlag(&loaded);

  std::vector<OwnedRecord> got;
  bool done = false;
  uint64_t reads = 0;
  auto run = [](KdClusterTest* t, TopicPartitionId tp,
                std::vector<OwnedRecord>* got, uint64_t* reads,
                bool* done) -> sim::Co<void> {
    RdmaConsumer consumer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->Leader(tp))).ok());
    KD_CHECK((co_await consumer.Subscribe(tp, 0)).ok());
    while (got->size() < 8) {
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok());
      if (records.value().empty()) break;
      for (auto& r : records.value()) got->push_back(std::move(r));
    }
    *reads = consumer.rdma_reads_issued();
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &got, &reads, &done));
  RunToFlag(&done);
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(got[i].offset, i);
    EXPECT_GT(got[i].value.size(), 64u * kKiB);
  }
  // Adaptive sizing: ~2 reads per record, not 32.
  EXPECT_LT(reads, 8u * 6);
}

TEST_F(KdClusterTest, SingleMetadataReadCoversMultipleTopics) {
  // Fig. 9: one RDMA Read refreshes the slots of every subscribed TP.
  Boot(1, 3, 1, true, false, true);
  bool done = false;
  uint64_t meta_reads = 0;
  bool all_fresh = false;
  auto run = [](KdClusterTest* t, uint64_t* meta_reads, bool* all_fresh,
                bool* done) -> sim::Co<void> {
    // Produce one record to each of the three partitions (all on broker 0
    // since num_brokers=1).
    for (int p = 0; p < 3; p++) {
      TopicPartitionId tp{"t", p};
      RdmaProducer producer(t->sim_, *t->fabric_, *t->tcpnet_,
                            t->client_node_, RdmaProducerConfig{});
      KafkaDirectBroker* tp_leader = t->Leader(tp);
      KD_CHECK((co_await producer.Connect(tp_leader, tp)).ok());
      std::string v = "p" + std::to_string(p);
      KD_CHECK((co_await producer.Produce(Slice("k", 1), Slice(v))).ok());
      producer.Close();
    }
    RdmaConsumer consumer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_);
    kafka::TopicPartitionId tp0{"t", 0};
    KafkaDirectBroker* leader = t->Leader(tp0);
    KD_CHECK((co_await consumer.Connect(leader)).ok());
    for (int p = 0; p < 3; p++) {
      kafka::TopicPartitionId tp{"t", p};
      KD_CHECK((co_await consumer.Subscribe(tp, 0)).ok());
    }
    uint64_t before = consumer.metadata_reads();
    KD_CHECK((co_await consumer.PollMetadata()).ok());
    *meta_reads = consumer.metadata_reads() - before;
    // After ONE metadata read, every partition has visible data.
    bool fresh = true;
    for (int p = 0; p < 3; p++) {
      kafka::TopicPartitionId tp{"t", p};
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok());
      fresh = fresh && records.value().size() == 1;
    }
    *all_fresh = fresh;
    *done = true;
  };
  sim::Spawn(sim_, run(this, &meta_reads, &all_fresh, &done));
  RunToFlag(&done);
  EXPECT_EQ(meta_reads, 1u);
  EXPECT_TRUE(all_fresh);
}

TEST_F(KdClusterTest, ConsumerRespectsHighWatermark) {
  // Records beyond the HWM (not fully replicated) are invisible to the
  // RDMA consumer: its slot only ever advances to the HWM position.
  Boot(2, 1, 2, true, /*rdma_replicate=*/true, /*rdma_consume=*/true);
  TopicPartitionId tp{"t", 0};
  bool done = false;
  bool saw_uncommitted = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, bool* saw,
                bool* done) -> sim::Co<void> {
    RdmaProducer producer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_, RdmaProducerConfig{});
    KD_CHECK((co_await producer.Connect(t->Leader(tp), tp)).ok());
    for (int i = 0; i < 5; i++) {
      KD_CHECK((co_await producer.Produce(Slice("k", 1),
                                          Slice("v", 1))).ok());
    }
    RdmaConsumer consumer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->Leader(tp))).ok());
    KD_CHECK((co_await consumer.Subscribe(tp, 0)).ok());
    size_t n = 0;
    for (int polls = 0; polls < 20 && n < 5; polls++) {
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok());
      for (auto& r : records.value()) {
        // Every record we see must be below the leader HWM.
        if (r.offset >=
            t->Leader(tp)->GetPartition(tp)->log.high_watermark()) {
          *saw = true;
        }
        n++;
      }
      co_await sim::Delay(t->sim_, Micros(100));
    }
    KD_CHECK(n == 5);
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &saw_uncommitted, &done));
  RunToFlag(&done);
  EXPECT_FALSE(saw_uncommitted);
}

TEST_F(KdClusterTest, RdmaConsumeDeniedWhenModuleDisabled) {
  Boot(1, 1, 1, true, false, /*rdma_consume=*/false);
  TopicPartitionId tp{"t", 0};
  bool denied = false, done = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, bool* denied,
                bool* done) -> sim::Co<void> {
    RdmaConsumer consumer(t->sim_, *t->fabric_, *t->tcpnet_,
                          t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->Leader(tp))).ok());
    Status st = co_await consumer.Subscribe(tp, 0);
    *denied = st.code() == StatusCode::kPermissionDenied;
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &denied, &done));
  RunToFlag(&done);
  EXPECT_TRUE(denied);
}

// Once a connection's metadata slots are all taken, the next head-file
// grant is refused without leaving its segment registered or exposing a
// usable rkey.
TEST_F(KdClusterTest, RefusedConsumeGrantLeavesNoRegistration) {
  Boot(1, 1, 1, true, false, /*rdma_consume=*/true);
  TopicPartitionId tp{"t", 0};
  uint32_t granted = 0;
  uint64_t registered_before = 0;
  kafka::RdmaConsumeAccessResponse refused;
  bool done = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, uint32_t* granted,
                uint64_t* registered_before,
                kafka::RdmaConsumeAccessResponse* refused,
                bool* done) -> sim::Co<void> {
    KafkaDirectBroker* broker = t->Leader(tp);
    auto conn = (co_await t->tcpnet_->Connect(t->client_node_, broker->node(),
                                              kafka::kKafkaPort))
                    .value();
    kafka::RdmaConsumeAccessRequest req{tp, 0};
    for (uint32_t i = 0; i <= ConsumerSession::kNumSlots; i++) {
      *registered_before = broker->rnic().registered_bytes();
      KD_CHECK((co_await conn->Send(Encode(req), false)).ok());
      auto reply = co_await conn->Recv();
      KD_CHECK(reply.ok());
      kafka::RdmaConsumeAccessResponse resp;
      KD_CHECK(Decode(Slice(reply.value()), &resp).ok());
      if (resp.error == kafka::ErrorCode::kNone) {
        (*granted)++;
      } else {
        *refused = resp;
      }
    }
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &granted, &registered_before, &refused,
                       &done));
  RunToFlag(&done);
  EXPECT_EQ(granted, ConsumerSession::kNumSlots);
  EXPECT_EQ(refused.error, kafka::ErrorCode::kRdmaAccessDenied);
  EXPECT_EQ(Leader(tp)->rnic().registered_bytes(), registered_before);
  EXPECT_EQ(Leader(tp)->rnic().LookupMr(refused.rkey), nullptr);
}

}  // namespace
}  // namespace kd
}  // namespace kafkadirect
