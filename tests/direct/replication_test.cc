// RDMA push replication (§4.3.2): direct writes into follower replica
// files, credit-based flow control, opportunistic batching, HWM
// propagation, and interaction with the RDMA produce path.
#include <gtest/gtest.h>

#include "kd_test_util.h"

namespace kafkadirect {
namespace kd {
namespace {

using kafka::TopicPartitionId;

TEST_F(KdClusterTest, PushReplicationReachesAllReplicas) {
  Boot(3, 1, 3, /*rdma_produce=*/true, /*rdma_replicate=*/true);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true});
  std::vector<int64_t> offsets;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                std::vector<int64_t>* offsets, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    co_await RdmaProduceN(p, 30, 400, offsets, done);
  };
  sim::Spawn(sim_, run(this, &producer, tp, &offsets, &done));
  RunToFlag(&done);
  ASSERT_EQ(offsets.size(), 30u);
  sim_.RunFor(Millis(5));  // let trailing replication writes land
  for (int b = 0; b < 3; b++) {
    kafka::PartitionState* ps = cluster_->broker(b)->GetPartition(tp);
    EXPECT_EQ(ps->log.log_end_offset(), 30) << "broker " << b;
  }
  EXPECT_EQ(Leader(tp)->GetPartition(tp)->log.high_watermark(), 30);
}

TEST_F(KdClusterTest, ReplicaBytesIdenticalUnderPush) {
  Boot(3, 1, 3, true, true);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true});
  std::vector<int64_t> offsets;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                std::vector<int64_t>* offsets, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    co_await RdmaProduceN(p, 10, 1024, offsets, done);
  };
  sim::Spawn(sim_, run(this, &producer, tp, &offsets, &done));
  RunToFlag(&done);
  sim_.RunFor(Millis(5));
  const kafka::Segment& leader_head =
      Leader(tp)->GetPartition(tp)->log.head();
  for (int b = 0; b < 3; b++) {
    const kafka::Segment& head =
        cluster_->broker(b)->GetPartition(tp)->log.head();
    ASSERT_EQ(head.size(), leader_head.size()) << "broker " << b;
    EXPECT_EQ(std::memcmp(head.data(), leader_head.data(), head.size()), 0);
  }
}

TEST_F(KdClusterTest, AckArrivesOnlyAfterFullReplication) {
  Boot(2, 1, 2, true, true);
  TopicPartitionId tp{"t", 0};
  bool done = false;
  bool follower_had_record = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, bool* had,
                bool* done) -> sim::Co<void> {
    RdmaProducer p(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                   RdmaProducerConfig{.exclusive = true});
    KD_CHECK((co_await p.Connect(t->Leader(tp), tp)).ok());
    auto off = co_await p.Produce(Slice("k", 1), Slice("v", 1));
    KD_CHECK(off.ok());
    // At ack time the follower replica must already hold the record.
    *had = t->cluster_->broker(1)->GetPartition(tp)->log.log_end_offset() >=
           1;
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &follower_had_record, &done));
  RunToFlag(&done);
  EXPECT_TRUE(follower_had_record);
}

TEST_F(KdClusterTest, PushReplicationLatencyBelowTcpPull) {
  // Paper Fig. 14: enabling the RDMA replication module cuts ~300 us off
  // the produce latency; both modules together reach ~100 us.
  TopicPartitionId tp{"t", 0};

  // RDMA produce + RDMA push replication.
  Boot(3, 1, 3, true, true);
  int64_t push_median = 0;
  bool done = false;
  {
    RdmaProducer rp(sim_, *fabric_, *tcpnet_, client_node_,
                    RdmaProducerConfig{.exclusive = true});
    std::vector<int64_t> offsets;
    auto rdma_run = [](KdClusterTest* t, RdmaProducer* p,
                       TopicPartitionId tp, std::vector<int64_t>* offsets,
                       bool* done) -> sim::Co<void> {
      KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
      co_await RdmaProduceN(p, 30, 64, offsets, done);
    };
    sim::Spawn(sim_, rdma_run(this, &rp, tp, &offsets, &done));
    RunToFlag(&done);
    push_median = rp.latencies().Median();
  }
  // The producer closed into this cluster's CQs above; drain the cluster
  // before the next Boot() frees its fabric and metrics registry.
  DrainShutdown();

  // Fresh cluster: TCP produce + TCP pull replication.
  Boot(3, 1, 3, false, false);
  kafka::TcpProducer tcp_prod(sim_, *tcpnet_, client_node_,
                              kafka::ProducerConfig{.acks = -1});
  done = false;
  auto tcp_run = [](KdClusterTest* t, kafka::TcpProducer* p,
                    TopicPartitionId tp, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp)->node())).ok());
    for (int i = 0; i < 30; i++) {
      auto off = co_await p->Produce(tp, Slice("k", 1), Slice("v", 1));
      KD_CHECK(off.ok());
    }
    *done = true;
  };
  sim::Spawn(sim_, tcp_run(this, &tcp_prod, tp, &done));
  RunToFlag(&done);
  int64_t pull_median = tcp_prod.latencies().Median();

  // Paper: ~100 us vs ~700 us (7x). Require at least 3x here.
  EXPECT_LT(push_median * 3, pull_median)
      << "push=" << push_median / 1000 << "us pull=" << pull_median / 1000
      << "us";
  EXPECT_LT(push_median, Micros(250));
  EXPECT_GT(pull_median, Micros(400));
}

TEST_F(KdClusterTest, CreditsLimitOutstandingReplicationWrites) {
  // With very few credits the leader must throttle, but everything still
  // replicates and no CQ overflows kill the session.
  TopicPartitionId tp{"t", 0};
  fabric_ = std::make_unique<net::Fabric>(sim_, cost_);
  tcpnet_ = std::make_unique<tcpnet::Network>(sim_, *fabric_);
  kafka::BrokerConfig cfg;
  cfg.segment_capacity = 8 * kMiB;
  cfg.rdma_produce = true;
  cfg.rdma_replicate = true;
  cfg.push_replication_credits = 2;  // tiny allowance
  cluster_ = std::make_unique<kafka::Cluster>(sim_, *fabric_, *tcpnet_, cfg,
                                              2);
  cluster_->set_broker_factory(
      [](sim::Simulator& sim, net::Fabric& fabric, tcpnet::Network& tcp,
         kafka::BrokerConfig config) -> std::unique_ptr<kafka::Broker> {
        return std::make_unique<KafkaDirectBroker>(sim, fabric, tcp, config);
      });
  KD_CHECK_OK(cluster_->Start());
  KD_CHECK_OK(cluster_->CreateTopic("t", 1, 2));
  client_node_ = fabric_->AddNode("client");

  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true,
                                           .max_inflight = 32});
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    std::string v(256, 'c');
    for (int i = 0; i < 100; i++) {
      KD_CHECK((co_await p->ProduceAsync(Slice("k", 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p->Flush()).ok());
    *done = true;
  };
  sim::Spawn(sim_, run(this, &producer, tp, &done));
  RunToFlag(&done);
  sim_.RunFor(Millis(10));
  EXPECT_EQ(producer.errors(), 0u);
  EXPECT_EQ(cluster_->broker(1)->GetPartition(tp)->log.log_end_offset(),
            100);
}

TEST_F(KdClusterTest, ContiguousSmallWritesAreBatched) {
  // §4.3.2: when producers flood the TP with small records faster than the
  // replication worker can issue writes, contiguous appends are merged
  // into fewer RDMA Writes.
  Boot(2, 1, 2, true, true);
  TopicPartitionId tp{"t", 0};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  int done_count = 0;
  auto run = [](KdClusterTest* t, TopicPartitionId tp,
                int* done_count) -> sim::Co<void> {
    RdmaProducer p(t->sim_, *t->fabric_, *t->tcpnet_,
                   t->fabric_->AddNode("flood"),
                   RdmaProducerConfig{.exclusive = false,
                                      .max_inflight = 32});
    KD_CHECK((co_await p.Connect(t->Leader(tp), tp)).ok());
    std::string v(32, 'b');
    for (int i = 0; i < kPerProducer; i++) {
      KD_CHECK((co_await p.ProduceAsync(Slice("k", 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p.Flush()).ok());
    (*done_count)++;
  };
  for (int i = 0; i < kProducers; i++) {
    sim::Spawn(sim_, run(this, tp, &done_count));
  }
  sim_.RunUntilDone([&]() { return done_count == kProducers; },
                    Seconds(300));
  ASSERT_EQ(done_count, kProducers);
  sim_.RunFor(Millis(10));
  auto* leader = Leader(tp);
  constexpr int kTotal = kProducers * kPerProducer;
  // All records replicated, but with (much) fewer replication writes.
  EXPECT_EQ(cluster_->broker(1)->GetPartition(tp)->log.log_end_offset(),
            kTotal);
  EXPECT_LT(leader->stats().replication_writes,
            static_cast<uint64_t>(kTotal) * 3 / 4);
  EXPECT_GT(leader->stats().replication_writes, 0u);
}

TEST_F(KdClusterTest, PushReplicationRollsReplicaFiles) {
  Boot(2, 1, 2, true, true, false, /*segment_capacity=*/64 * kKiB);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true});
  std::vector<int64_t> offsets;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                std::vector<int64_t>* offsets, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    co_await RdmaProduceN(p, 30, 8 * kKiB, offsets, done);
  };
  sim::Spawn(sim_, run(this, &producer, tp, &offsets, &done));
  RunToFlag(&done);
  sim_.RunFor(Millis(20));
  kafka::PartitionState* leader_ps = Leader(tp)->GetPartition(tp);
  kafka::PartitionState* follower_ps =
      cluster_->broker(1)->GetPartition(tp);
  EXPECT_GT(leader_ps->log.segments().size(), 2u);
  EXPECT_EQ(follower_ps->log.segments().size(),
            leader_ps->log.segments().size());
  EXPECT_EQ(follower_ps->log.log_end_offset(), 30);
}

TEST_F(KdClusterTest, FollowerHwmAdvancesViaPush) {
  Boot(2, 1, 2, true, true);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true});
  std::vector<int64_t> offsets;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                std::vector<int64_t>* offsets, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    co_await RdmaProduceN(p, 10, 100, offsets, done);
  };
  sim::Spawn(sim_, run(this, &producer, tp, &offsets, &done));
  RunToFlag(&done);
  sim_.RunFor(Millis(10));
  // The follower learns the HWM through the leader's control Sends.
  EXPECT_GE(cluster_->broker(1)->GetPartition(tp)->log.high_watermark(), 9);
}

}  // namespace
}  // namespace kd
}  // namespace kafkadirect
