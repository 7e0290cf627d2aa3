// Cross-layer metric invariants (ISSUE 3 satellite): the observability
// counters must agree with what the datapaths actually did — bytes in ==
// bytes out, TCP pays copies, RDMA produce does not.
#include <gtest/gtest.h>

#include "direct/mux_producer.h"
#include "harness/harness.h"

namespace kafkadirect {
namespace harness {
namespace {

uint64_t CounterValue(TestCluster& cluster, const std::string& name) {
  const obs::Counter* c = cluster.fabric().obs().metrics.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

TEST(ObsInvariantsTest, TcpProduceConsumeConservesBytes) {
  DeploymentConfig deploy;
  TestCluster cluster(deploy);
  ConsumeOptions options;
  options.preload_records = 50;
  options.record_size = 512;
  auto result = RunConsumeWorkload(cluster, SystemKind::kKafka, options);
  ASSERT_EQ(result.records, 50u);

  // Every byte the broker appended came back out through fetches.
  uint64_t produced = CounterValue(cluster, "kd.broker.0.produce.bytes");
  uint64_t fetched =
      CounterValue(cluster, "kd.broker.0.fetch.bytes_returned");
  EXPECT_GT(produced, 50u * 512u);
  EXPECT_EQ(produced, fetched);

  // The TCP path pays kernel copies on both produce and fetch.
  EXPECT_GT(CounterValue(cluster, "kd.tcp.copied_bytes"), produced);
  EXPECT_GT(CounterValue(cluster, "kd.tcp.syscalls"), 100u);
  // TCP-ingested batches are copied into the log exactly once.
  EXPECT_EQ(CounterValue(cluster, "kd.broker.0.produce.copied_bytes"),
            produced);
}

TEST(ObsInvariantsTest, RdmaProduceIsZeroCopy) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  TestCluster cluster(deploy);
  ProduceOptions options;
  options.records_per_producer = 30;
  options.record_size = 1024;
  options.max_inflight = 4;
  auto result =
      RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
  ASSERT_EQ(result.records, 30u);
  ASSERT_EQ(result.errors, 0u);

  // One-sided writes land in the TP file without any broker-side copy.
  uint64_t produced = CounterValue(cluster, "kd.broker.0.produce.bytes");
  uint64_t zero_copy =
      CounterValue(cluster, "kd.direct.rdma_produce.zero_copy_bytes");
  EXPECT_GT(zero_copy, 30u * 1024u);
  EXPECT_EQ(zero_copy, produced);
  EXPECT_EQ(CounterValue(cluster, "kd.broker.0.produce.copied_bytes"), 0u);

  // The verbs layer saw the writes and the control-message acks.
  EXPECT_GE(CounterValue(cluster, "kd.rdma.ops.write"), 30u);
  EXPECT_GT(CounterValue(cluster, "kd.direct.ctrl_msgs"), 0u);
  EXPECT_GT(CounterValue(cluster, "kd.rdma.bytes_posted"), zero_copy);
}

TEST(ObsInvariantsTest, SrqAccountingAndZeroCopyHoldWithSrqEnabled) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.use_srq = true;
  deploy.broker.cq_poll_batch = 8;
  TestCluster cluster(deploy);
  ProduceOptions options;
  options.records_per_producer = 30;
  options.record_size = 1024;
  options.max_inflight = 4;
  auto result =
      RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
  ASSERT_EQ(result.records, 30u);
  ASSERT_EQ(result.errors, 0u);

  // SRQ accounting: posted - consumed == live depth, both in the SRQ's
  // own view and in the process-wide metric instruments.
  uint64_t posted = CounterValue(cluster, "kd.rdma.srq.posted");
  uint64_t consumed = CounterValue(cluster, "kd.rdma.srq.consumed");
  const obs::Gauge* depth_gauge =
      cluster.fabric().obs().metrics.FindGauge("kd.rdma.srq.depth");
  ASSERT_NE(depth_gauge, nullptr);
  EXPECT_GT(posted, 0u);
  EXPECT_GT(consumed, 0u);  // the workload ran through the SRQ
  EXPECT_EQ(posted - consumed,
            static_cast<uint64_t>(depth_gauge->value()));
  rdma::SharedReceiveQueue* srq = cluster.Broker(0)->srq();
  ASSERT_NE(srq, nullptr);
  EXPECT_EQ(srq->posted() - srq->consumed(), srq->depth());
  EXPECT_EQ(posted - consumed, srq->depth());  // single broker: one SRQ

  // The zero-copy invariants are unchanged by the SRQ datapath.
  uint64_t produced = CounterValue(cluster, "kd.broker.0.produce.bytes");
  uint64_t zero_copy =
      CounterValue(cluster, "kd.direct.rdma_produce.zero_copy_bytes");
  EXPECT_GT(zero_copy, 30u * 1024u);
  EXPECT_EQ(zero_copy, produced);
  EXPECT_EQ(CounterValue(cluster, "kd.broker.0.produce.copied_bytes"), 0u);

  // The batched poll path recorded its drain sizes.
  const obs::LogLinearHistogram* batches =
      cluster.fabric().obs().metrics.FindHistogram("kd.rdma.cq.poll_batch");
  ASSERT_NE(batches, nullptr);
  EXPECT_GT(batches->count(), 0u);
}

TEST(ObsInvariantsTest, AckedProduceImpliesHwmAtLogEnd) {
  DeploymentConfig deploy;
  deploy.num_brokers = 3;
  TestCluster cluster(deploy);
  ProduceOptions options;
  options.records_per_producer = 20;
  options.record_size = 256;
  options.replication_factor = 3;
  options.acks = -1;
  auto result = RunProduceWorkload(cluster, SystemKind::kKafka, options);
  ASSERT_EQ(result.records, 20u);
  ASSERT_EQ(result.errors, 0u);

  // acks=all responses only fire once the HWM covers the batch, so after
  // the last ack the leader's HWM must equal its log end, and follower
  // progress (ISR updates) must have been recorded.
  int32_t leader = 0;
  uint64_t hwm_updates = 0;
  uint64_t isr_updates = 0;
  for (int b = 0; b < 3; b++) {
    std::string prefix = "kd.broker." + std::to_string(b) + ".";
    hwm_updates += CounterValue(cluster, prefix + "hwm.updates");
    uint64_t isr = CounterValue(cluster, prefix + "isr.updates");
    if (isr > 0) leader = b;
    isr_updates += isr;
  }
  EXPECT_GT(hwm_updates, 0u);
  EXPECT_GT(isr_updates, 0u);
  (void)leader;

  // Queue instrumentation saw the requests.
  const obs::LogLinearHistogram* wait =
      cluster.fabric().obs().metrics.FindHistogram(
          "kd.broker.0.request_queue.wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(wait->count(), 0u);
}

// --- Datapath protocols (DESIGN.md §12): the byte-conservation invariants
// must hold under each protocol, and the signaling counters must agree
// with what the producer posted. ---

struct SignalingCounters {
  uint64_t posted, signaled, cqes, produced, zero_copy, copied;
};

constexpr int kSignalingRecords = 160;

// kSignalingRecords records over one stream of a MuxProducer, which
// notifies with Write+Send and signals one notify Send in 16.
SignalingCounters RunMuxStream() {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.qp_mux = true;
  TestCluster cluster(deploy);
  const kafka::TopicPartitionId tp{"signaling", 0};
  KD_CHECK_OK(cluster.CreateTopic(tp.topic, 1, 1));
  const net::NodeId node = cluster.AddClientNode("producer");
  bool done = false;
  auto run = [](TestCluster* c, kafka::TopicPartitionId tp, net::NodeId node,
                bool* done) -> sim::Co<void> {
    const std::string value(512, 's');
    kd::MuxProducer p(c->sim(), c->fabric(), c->tcp(), node,
                      kd::MuxProducerConfig{});
    KD_CHECK_OK(co_await p.Connect(c->Leader(tp), tp));
    KD_CHECK((co_await p.OpenStreams(1, 1)).ok());
    for (int i = 0; i < kSignalingRecords; i++) {
      KD_CHECK((co_await p.Produce(1, Slice("k", 1), Slice(value))).ok());
    }
    KD_CHECK_OK(co_await p.Flush());
    p.Close();
    *done = true;
  };
  sim::Spawn(cluster.sim(), run(&cluster, tp, node, &done));
  cluster.sim().RunUntilDone([&]() { return done; }, Seconds(60));
  KD_CHECK(done);
  return SignalingCounters{
      CounterValue(cluster, "kd.rdma.wrs_posted"),
      CounterValue(cluster, "kd.rdma.wrs_signaled"),
      CounterValue(cluster, "kd.rdma.cqes"),
      CounterValue(cluster, "kd.broker.0.produce.bytes"),
      CounterValue(cluster, "kd.direct.rdma_produce.zero_copy_bytes"),
      CounterValue(cluster, "kd.broker.0.produce.copied_bytes")};
}

TEST(ObsInvariantsTest, SelectiveSignalingCutsCqesNotBytes) {
  const SignalingCounters mux = RunMuxStream();

  // Every produced byte lands zero-copy; only the CQE stream thins out.
  EXPECT_GT(mux.produced, 0u);
  EXPECT_EQ(mux.zero_copy, mux.produced);
  EXPECT_EQ(mux.copied, 0u);

  // Signaled WRs drop by roughly the interval...
  EXPECT_LE(mux.signaled, mux.posted);
  EXPECT_LT(mux.signaled * 4, static_cast<uint64_t>(kSignalingRecords));
  // ...while every receive still completes: one CQE per notify and per
  // ack, plus one each for the stream open (kMuxOpen, kMuxGrant).
  EXPECT_EQ(mux.cqes, mux.signaled + 2 * kSignalingRecords + 2);
}

constexpr uint64_t kNotifyRecords = 100;

// Produces kNotifyRecords records of `record_size` bytes from one exclusive
// RdmaProducer; returns its WriteWithImm notification count.
uint64_t WriteImmNotifies(size_t record_size) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  TestCluster cluster(deploy);
  const kafka::TopicPartitionId tp{"notify", 0};
  KD_CHECK_OK(cluster.CreateTopic(tp.topic, 1, 1));
  const net::NodeId node = cluster.AddClientNode("producer");
  bool done = false;
  auto run = [](TestCluster* c, kafka::TopicPartitionId tp, net::NodeId node,
                size_t record_size, bool* done) -> sim::Co<void> {
    kd::RdmaProducer p(c->sim(), c->fabric(), c->tcp(), node,
                       kd::RdmaProducerConfig{.max_inflight = 4});
    KD_CHECK_OK(co_await p.Connect(c->Leader(tp), tp));
    const std::string value(record_size, 'n');
    for (uint64_t i = 0; i < kNotifyRecords; i++) {
      KD_CHECK_OK(co_await p.ProduceAsync(Slice("k", 1), Slice(value)));
    }
    KD_CHECK_OK(co_await p.Flush());
    KD_CHECK(p.errors() == 0);
    p.Close();
    *done = true;
  };
  sim::Spawn(cluster.sim(), run(&cluster, tp, node, record_size, &done));
  cluster.sim().RunUntilDone([&]() { return done; }, Seconds(60));
  KD_CHECK(done);
  // Every produced byte landed zero-copy.
  KD_CHECK(CounterValue(cluster, "kd.broker.0.produce.bytes") ==
           CounterValue(cluster, "kd.direct.rdma_produce.zero_copy_bytes"));
  return CounterValue(cluster, "kd.direct.notify.write_imm");
}

TEST(ObsInvariantsTest, EveryRecordNotifiesWithOneWriteWithImm) {
  // The record size never changes the notification method (§4.2.2).
  EXPECT_EQ(WriteImmNotifies(256), kNotifyRecords);
  EXPECT_EQ(WriteImmNotifies(8192), kNotifyRecords);
}

TEST(ObsInvariantsTest, RingConsumeConservesBytesWithZeroReads) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  TestCluster cluster(deploy);
  ConsumeOptions options;
  options.preload_records = 80;
  options.record_size = 512;
  options.ring_consume = true;
  auto result =
      RunConsumeWorkload(cluster, SystemKind::kKdExclusive, options);
  ASSERT_EQ(result.records, 80u);

  // Every appended byte crossed the fabric through the ring exactly once,
  // and the consumer never issued an RDMA Read (neither data fetches nor
  // metadata-slot polls).
  EXPECT_EQ(CounterValue(cluster, "kd.direct.ring.pushed_bytes"),
            CounterValue(cluster, "kd.broker.0.produce.bytes"));
  EXPECT_EQ(CounterValue(cluster, "kd.rdma.ops.read"), 0u);
}

TEST(ObsInvariantsTest, AllProtocolUpgradesComposeCleanly) {
  // Ring consume of a log that zero-copy RDMA produce committed and 2-way
  // push replication (fixed credit window) copied to the follower.
  DeploymentConfig deploy;
  deploy.num_brokers = 2;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_replicate = true;
  deploy.broker.rdma_consume = true;
  TestCluster cluster(deploy);
  const kafka::TopicPartitionId tp{"composed", 0};
  KD_CHECK_OK(cluster.CreateTopic(tp.topic, 1, 2));
  const net::NodeId node = cluster.AddClientNode("client");
  constexpr uint64_t kRecords = 150;
  uint64_t consumed = 0;
  bool done = false;
  auto run = [](TestCluster* c, kafka::TopicPartitionId tp, net::NodeId node,
                uint64_t* consumed, bool* done) -> sim::Co<void> {
    kd::RdmaProducer producer(c->sim(), c->fabric(), c->tcp(), node,
                              kd::RdmaProducerConfig{.max_inflight = 8});
    KD_CHECK_OK(co_await producer.Connect(c->Leader(tp), tp));
    const std::string value(1024, 'c');
    for (uint64_t i = 0; i < kRecords; i++) {
      KD_CHECK_OK(co_await producer.ProduceAsync(Slice("k", 1), Slice(value)));
    }
    KD_CHECK_OK(co_await producer.Flush());
    producer.Close();
    kd::RdmaConsumer consumer(c->sim(), c->fabric(), c->tcp(), node,
                              kd::RdmaConsumerConfig{.ring_consume = true});
    KD_CHECK_OK(co_await consumer.Connect(c->Leader(tp)));
    KD_CHECK_OK(co_await consumer.Subscribe(tp, 0));
    for (int empty = 0; *consumed < kRecords && empty < 3;) {
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok()) << records.status().ToString();
      empty = records.value().empty() ? empty + 1 : 0;
      *consumed += records.value().size();
    }
    *done = true;
  };
  sim::Spawn(cluster.sim(), run(&cluster, tp, node, &consumed, &done));
  cluster.sim().RunUntilDone([&]() { return done; }, Seconds(60));
  ASSERT_TRUE(done);
  ASSERT_EQ(consumed, kRecords);

  uint64_t produced = CounterValue(cluster, "kd.broker.0.produce.bytes") +
                      CounterValue(cluster, "kd.broker.1.produce.bytes");
  uint64_t zero_copy =
      CounterValue(cluster, "kd.direct.rdma_produce.zero_copy_bytes");
  EXPECT_EQ(zero_copy, produced);
  EXPECT_EQ(CounterValue(cluster, "kd.broker.0.produce.copied_bytes") +
                CounterValue(cluster, "kd.broker.1.produce.copied_bytes"),
            0u);
  // The consumer drained the replicated log through the ring alone.
  EXPECT_EQ(CounterValue(cluster, "kd.direct.ring.pushed_bytes"), produced);
  EXPECT_EQ(CounterValue(cluster, "kd.rdma.ops.read"), 0u);
  EXPECT_EQ(CounterValue(cluster, "kd.rdma.rnr_events"), 0u);
}

TEST(ObsInvariantsTest, MetricsJsonSnapshotIsWritable) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  TestCluster cluster(deploy);
  ProduceOptions options;
  options.records_per_producer = 5;
  (void)RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
  std::ostringstream os;
  cluster.fabric().obs().metrics.WriteJson(os);
  std::string json = os.str();
  // Per-QP verbs counters and the TCP copied-bytes counter are present
  // (the fig10 --metrics_json acceptance criterion).
  EXPECT_NE(json.find("\"kd.rdma.qp."), std::string::npos);
  EXPECT_NE(json.find("\"kd.tcp.copied_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"kd.broker.0.api.produce.latency_ns\""),
            std::string::npos);
}

}  // namespace
}  // namespace harness
}  // namespace kafkadirect
