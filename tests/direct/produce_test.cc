// RDMA produce datapath (§4.2.2): exclusive and shared modes, offset
// assignment, ordering, rotation, and coexistence with TCP producers.
#include <gtest/gtest.h>

#include "kd_test_util.h"

namespace kafkadirect {
namespace kd {
namespace {

using kafka::OwnedRecord;
using kafka::TopicPartitionId;

TEST_F(KdClusterTest, ExclusiveProduceAssignsSequentialOffsets) {
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true});
  std::vector<int64_t> offsets;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                std::vector<int64_t>* offsets, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    co_await RdmaProduceN(p, 20, 128, offsets, done);
  };
  sim::Spawn(sim_, run(this, &producer, tp, &offsets, &done));
  RunToFlag(&done);
  ASSERT_EQ(offsets.size(), 20u);
  for (int i = 0; i < 20; i++) EXPECT_EQ(offsets[i], i);
  EXPECT_EQ(producer.acked_records(), 20u);
  EXPECT_EQ(Leader(tp)->stats().rdma_produce_requests, 20u);
  EXPECT_EQ(Leader(tp)->stats().produce_requests, 0u);  // no TCP produce
}

TEST_F(KdClusterTest, ExclusiveProduceLatencyMatchesPaper) {
  // Paper §5.1: ~90 us for small records, no replication.
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true});
  std::vector<int64_t> offsets;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                std::vector<int64_t>* offsets, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    co_await RdmaProduceN(p, 50, 64, offsets, done);
  };
  sim::Spawn(sim_, run(this, &producer, tp, &offsets, &done));
  RunToFlag(&done);
  int64_t median = producer.latencies().Median();
  EXPECT_GT(median, Micros(50));
  EXPECT_LT(median, Micros(150));
}

TEST_F(KdClusterTest, RdmaProducedRecordsReadableByTcpConsumer) {
  // Backward compatibility: data written via RDMA must be a byte-perfect
  // Kafka log that the unmodified TCP consumer can read.
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  std::vector<OwnedRecord> got;
  bool done = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp,
                std::vector<OwnedRecord>* got, bool* done) -> sim::Co<void> {
    RdmaProducer producer(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                          RdmaProducerConfig{.exclusive = true});
    KD_CHECK((co_await producer.Connect(t->Leader(tp), tp)).ok());
    for (int i = 0; i < 5; i++) {
      std::string v = "rdma-value-" + std::to_string(i);
      KD_CHECK((co_await producer.Produce(Slice("k", 1), Slice(v))).ok());
    }
    kafka::TcpConsumer consumer(t->sim_, *t->tcpnet_, t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->Leader(tp)->node())).ok());
    while (got->size() < 5) {
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok());
      for (auto& r : records.value()) got->push_back(std::move(r));
    }
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &got, &done));
  RunToFlag(&done);
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(got[i].offset, i);
    EXPECT_EQ(got[i].value, "rdma-value-" + std::to_string(i));
  }
}

TEST_F(KdClusterTest, PipelinedExclusiveProduceStaysOrdered) {
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true,
                                           .max_inflight = 32});
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    std::string v(512, 'x');
    for (int i = 0; i < 200; i++) {
      KD_CHECK((co_await p->ProduceAsync(Slice("k", 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p->Flush()).ok());
    *done = true;
  };
  sim::Spawn(sim_, run(this, &producer, tp, &done));
  RunToFlag(&done);
  EXPECT_EQ(producer.acked_records(), 200u);
  EXPECT_EQ(producer.errors(), 0u);
  EXPECT_EQ(Leader(tp)->GetPartition(tp)->log.log_end_offset(), 200);
}

TEST_F(KdClusterTest, SecondExclusiveGrantDenied) {
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  bool denied = false;
  bool done = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, bool* denied,
                bool* done) -> sim::Co<void> {
    RdmaProducer p1(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                    RdmaProducerConfig{.exclusive = true});
    KD_CHECK((co_await p1.Connect(t->Leader(tp), tp)).ok());
    RdmaProducer p2(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                    RdmaProducerConfig{.exclusive = true});
    Status st = co_await p2.Connect(t->Leader(tp), tp);
    *denied = !st.ok();
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &denied, &done));
  RunToFlag(&done);
  EXPECT_TRUE(denied);
}

TEST_F(KdClusterTest, SharedProduceSingleProducer) {
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = false});
  std::vector<int64_t> offsets;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                std::vector<int64_t>* offsets, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    co_await RdmaProduceN(p, 25, 100, offsets, done);
  };
  sim::Spawn(sim_, run(this, &producer, tp, &offsets, &done));
  RunToFlag(&done);
  ASSERT_EQ(offsets.size(), 25u);
  for (int i = 0; i < 25; i++) EXPECT_EQ(offsets[i], i);
  EXPECT_GE(producer.faa_issued(), 25u);  // one FAA per produce
}

TEST_F(KdClusterTest, SharedProduceTwoConcurrentProducers) {
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  RdmaProducer p1(sim_, *fabric_, *tcpnet_, fabric_->AddNode("c1"),
                  RdmaProducerConfig{.exclusive = false, .max_inflight = 8});
  RdmaProducer p2(sim_, *fabric_, *tcpnet_, fabric_->AddNode("c2"),
                  RdmaProducerConfig{.exclusive = false, .max_inflight = 8});
  bool done1 = false, done2 = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                char tag, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    std::string v(200, tag);
    for (int i = 0; i < 60; i++) {
      KD_CHECK((co_await p->ProduceAsync(Slice(&tag, 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p->Flush()).ok());
    *done = true;
  };
  sim::Spawn(sim_, run(this, &p1, tp, 'a', &done1));
  sim::Spawn(sim_, run(this, &p2, tp, 'b', &done2));
  sim_.RunUntilDone([&]() { return done1 && done2; }, Seconds(300));
  ASSERT_TRUE(done1 && done2);
  EXPECT_EQ(p1.acked_records() + p2.acked_records(), 120u);
  EXPECT_EQ(p1.errors() + p2.errors(), 0u);

  // The log must contain exactly the 120 records, contiguous, CRC-valid.
  kafka::PartitionState* ps = Leader(tp)->GetPartition(tp);
  EXPECT_EQ(ps->log.log_end_offset(), 120);
  EXPECT_EQ(ps->log.high_watermark(), 120);
  auto data = ps->log.Read(0, 1u << 30, 120).value();
  Slice rest(data);
  int64_t expect = 0;
  int from_a = 0, from_b = 0;
  while (!rest.empty()) {
    auto view = kafka::RecordBatchView::Parse(rest).value();
    EXPECT_EQ(view.base_offset(), expect);
    view.ForEach([&](const kafka::RecordView& r) {
                   if (r.key[0] == 'a') from_a++;
                   if (r.key[0] == 'b') from_b++;
                 })
        .ok();
    expect = view.last_offset() + 1;
    rest.RemovePrefix(view.total_size());
  }
  EXPECT_EQ(expect, 120);
  EXPECT_EQ(from_a, 60);
  EXPECT_EQ(from_b, 60);
}

TEST_F(KdClusterTest, SharedAndTcpProducersCoexist) {
  // §4.2.2 shared RDMA/TCP access: a TCP producer writing to an
  // RDMA-shared file reserves its region via the broker's loopback FAA.
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  bool done_rdma = false, done_tcp = false;
  auto rdma_run = [](KdClusterTest* t, TopicPartitionId tp,
                     bool* done) -> sim::Co<void> {
    RdmaProducer p(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                   RdmaProducerConfig{.exclusive = false, .max_inflight = 4});
    KD_CHECK((co_await p.Connect(t->Leader(tp), tp)).ok());
    std::string v(150, 'R');
    for (int i = 0; i < 40; i++) {
      KD_CHECK((co_await p.ProduceAsync(Slice("R", 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p.Flush()).ok());
    *done = true;
  };
  auto tcp_run = [](KdClusterTest* t, TopicPartitionId tp,
                    bool* done) -> sim::Co<void> {
    kafka::TcpProducer p(t->sim_, *t->tcpnet_, t->client_node_,
                         kafka::ProducerConfig{});
    KD_CHECK((co_await p.Connect(t->Leader(tp)->node())).ok());
    std::string v(150, 'T');
    for (int i = 0; i < 40; i++) {
      auto off = co_await p.Produce(tp, Slice("T", 1), Slice(v));
      KD_CHECK(off.ok()) << off.status().ToString();
    }
    *done = true;
  };
  sim::Spawn(sim_, rdma_run(this, tp, &done_rdma));
  sim::Spawn(sim_, tcp_run(this, tp, &done_tcp));
  sim_.RunUntilDone([&]() { return done_rdma && done_tcp; }, Seconds(300));
  ASSERT_TRUE(done_rdma && done_tcp);

  kafka::PartitionState* ps = Leader(tp)->GetPartition(tp);
  EXPECT_EQ(ps->log.log_end_offset(), 80);
  auto data = ps->log.Read(0, 1u << 30, 80).value();
  Slice rest(data);
  int from_r = 0, from_t = 0;
  int64_t expect = 0;
  while (!rest.empty()) {
    auto view = kafka::RecordBatchView::Parse(rest).value();
    EXPECT_EQ(view.base_offset(), expect);
    expect = view.last_offset() + 1;
    view.ForEach([&](const kafka::RecordView& r) {
                   if (r.key[0] == 'R') from_r++;
                   if (r.key[0] == 'T') from_t++;
                 })
        .ok();
    rest.RemovePrefix(view.total_size());
  }
  EXPECT_EQ(from_r, 40);
  EXPECT_EQ(from_t, 40);
}

TEST_F(KdClusterTest, ExclusiveProducerRotatesHeadFile) {
  Boot(1, 1, 1, true, false, false, /*segment_capacity=*/64 * kKiB);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true});
  std::vector<int64_t> offsets;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                std::vector<int64_t>* offsets, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    co_await RdmaProduceN(p, 40, 8 * kKiB, offsets, done);
  };
  sim::Spawn(sim_, run(this, &producer, tp, &offsets, &done));
  RunToFlag(&done);
  ASSERT_EQ(offsets.size(), 40u);
  for (int i = 0; i < 40; i++) EXPECT_EQ(offsets[i], i);
  EXPECT_GT(producer.rotations(), 2u);
  kafka::PartitionState* ps = Leader(tp)->GetPartition(tp);
  EXPECT_GT(ps->log.segments().size(), 3u);
  EXPECT_EQ(ps->log.log_end_offset(), 40);
}

TEST_F(KdClusterTest, SharedProducerRotatesOnOverflow) {
  Boot(1, 1, 1, true, false, false, /*segment_capacity=*/64 * kKiB);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = false});
  std::vector<int64_t> offsets;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                std::vector<int64_t>* offsets, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    co_await RdmaProduceN(p, 40, 8 * kKiB, offsets, done);
  };
  sim::Spawn(sim_, run(this, &producer, tp, &offsets, &done));
  RunToFlag(&done);
  ASSERT_EQ(offsets.size(), 40u);
  EXPECT_GT(producer.rotations(), 2u);
  EXPECT_EQ(Leader(tp)->GetPartition(tp)->log.log_end_offset(), 40);
}

TEST_F(KdClusterTest, TcpProducerRotatesSharedHeadFile) {
  // A TCP producer writing to an RDMA-shared file reserves each region with
  // the broker's loopback FAA (§4.2.2). When a batch overflows the file,
  // CommitBatch seals it, rolls the log and grants a fresh shared head
  // file, so every record keeps to the shared path across rotations.
  Boot(1, 1, 1, true, false, false, /*segment_capacity=*/64 * kKiB);
  TopicPartitionId tp{"t", 0};
  std::vector<int64_t> offsets;
  bool done = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp,
                std::vector<int64_t>* offsets, bool* done) -> sim::Co<void> {
    RdmaProducer rdma(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                      RdmaProducerConfig{.exclusive = false});
    KD_CHECK((co_await rdma.Connect(t->Leader(tp), tp)).ok());
    co_await RdmaProduceN(&rdma, 2, 100, offsets);
    rdma.Close();  // the shared grant outlives its producer
    kafka::TcpProducer tcp(t->sim_, *t->tcpnet_, t->client_node_,
                           kafka::ProducerConfig{});
    KD_CHECK((co_await tcp.Connect(t->Leader(tp)->node())).ok());
    const std::string v(8 * kKiB, 'T');
    for (int i = 0; i < 40; i++) {
      auto off = co_await tcp.Produce(tp, Slice("T", 1), Slice(v));
      KD_CHECK(off.ok()) << off.status().ToString();
      offsets->push_back(off.value());
    }
    tcp.Close();
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &offsets, &done));
  RunToFlag(&done);
  ASSERT_EQ(offsets.size(), 42u);
  for (int i = 0; i < 42; i++) EXPECT_EQ(offsets[i], i);
  KafkaDirectBroker* leader = Leader(tp);
  kafka::PartitionState* ps = leader->GetPartition(tp);
  EXPECT_EQ(ps->log.segments().size(), 6u);  // five rotations
  EXPECT_EQ(ps->log.log_end_offset(), 42);
  // All 42 records committed in place through the shared file, none
  // through the plain TCP append.
  EXPECT_EQ(leader->stats().rdma_produce_requests, 42u);
  // The segments hold offsets 0..41 back to back.
  int64_t expect = 0;
  for (const auto& seg : ps->log.segments()) {
    Slice rest(seg->data(), seg->size());
    while (!rest.empty()) {
      auto view = kafka::RecordBatchView::Parse(rest).value();
      EXPECT_EQ(view.base_offset(), expect);
      expect = view.last_offset() + 1;
      rest.RemovePrefix(view.total_size());
    }
  }
  EXPECT_EQ(expect, 42);
  DrainShutdown();
}

TEST_F(KdClusterTest, RdmaAccessDeniedWhenModuleDisabled) {
  Boot(1, 1, 1, /*rdma_produce=*/false);
  TopicPartitionId tp{"t", 0};
  bool denied = false, done = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, bool* denied,
                bool* done) -> sim::Co<void> {
    RdmaProducer p(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                   RdmaProducerConfig{});
    Status st = co_await p.Connect(t->Leader(tp), tp);
    *denied = st.code() == StatusCode::kPermissionDenied;
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &denied, &done));
  RunToFlag(&done);
  EXPECT_TRUE(denied);
}

TEST_F(KdClusterTest, RdmaProduceBandwidthBeatsTcp) {
  // Paper Fig. 11: exclusive RDMA produce is several times faster than the
  // TCP producer for mid-size records.
  Boot(1, 1, 1, true, false, false, 64 * kMiB);
  TopicPartitionId tp{"t", 0};
  const int n = 300;
  const size_t size = 32 * kKiB;

  bool done = false;
  sim::TimeNs rdma_start = sim_.Now();
  RdmaProducer rp(sim_, *fabric_, *tcpnet_, client_node_,
                  RdmaProducerConfig{.exclusive = true, .max_inflight = 16});
  auto rdma_run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                     int n, size_t size, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    std::string v(size, 'x');
    for (int i = 0; i < n; i++) {
      KD_CHECK((co_await p->ProduceAsync(Slice("k", 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p->Flush()).ok());
    *done = true;
  };
  sim::Spawn(sim_, rdma_run(this, &rp, tp, n, size, &done));
  RunToFlag(&done);
  double rdma_mibps = RateMiBps(static_cast<double>(n) * size,
                                static_cast<double>(sim_.Now() - rdma_start));

  KD_CHECK_OK(cluster_->CreateTopic("tcp-t", 1, 1));
  TopicPartitionId tcp_tp{"tcp-t", 0};
  done = false;
  sim::TimeNs tcp_start = sim_.Now();
  kafka::TcpProducer tp_prod(sim_, *tcpnet_, client_node_,
                             kafka::ProducerConfig{.max_inflight = 5});
  auto tcp_run = [](KdClusterTest* t, kafka::TcpProducer* p,
                    TopicPartitionId tp, int n, size_t size,
                    bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp)->node())).ok());
    std::string v(size, 'x');
    for (int i = 0; i < n; i++) {
      KD_CHECK((co_await p->ProduceAsync(tp, Slice("k", 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p->Flush()).ok());
    *done = true;
  };
  sim::Spawn(sim_, tcp_run(this, &tp_prod, tcp_tp, n, size, &done));
  RunToFlag(&done);
  double tcp_mibps = RateMiBps(static_cast<double>(n) * size,
                               static_cast<double>(sim_.Now() - tcp_start));
  EXPECT_GT(rdma_mibps, 2.5 * tcp_mibps)
      << "rdma=" << rdma_mibps << " tcp=" << tcp_mibps;
}

}  // namespace
}  // namespace kd
}  // namespace kafkadirect
