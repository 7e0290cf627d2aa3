// §4.2.2 "the choice of notification method": the paper microbenchmarks
// WriteWithImm and Write+Send and picks WriteWithImm for latency, and
// KafkaDirect "only implemented WriteWithImm". RdmaProducer does the same:
// every produce, exclusive or shared, commits with one WriteWithImm. (The
// broker's Write+Send commit path is MuxProducer's; qp_churn_test.cc and
// obs_invariants_test.cc cover it.)
#include <gtest/gtest.h>

#include "kd_test_util.h"

namespace kafkadirect {
namespace kd {
namespace {

using kafka::TopicPartitionId;

// Parameterized on "notify with Write+Send"; WriteWithImm (false) is the
// only instance, since it is the only method RdmaProducer implements.
class NotificationModeTest : public KdClusterTest,
                             public ::testing::WithParamInterface<bool> {};

TEST_P(NotificationModeTest, ExclusiveProduceEquivalent) {
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(
      sim_, *fabric_, *tcpnet_, client_node_,
      RdmaProducerConfig{.exclusive = true, .max_inflight = 8});
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    for (int i = 0; i < 50; i++) {
      std::string v = "note-" + std::to_string(i);
      KD_CHECK((co_await p->ProduceAsync(Slice("k", 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p->Flush()).ok());
    *done = true;
  };
  sim::Spawn(sim_, run(this, &producer, tp, &done));
  RunToFlag(&done);
  EXPECT_EQ(producer.acked_records(), 50u);
  EXPECT_EQ(producer.errors(), 0u);
  kafka::PartitionState* ps = Leader(tp)->GetPartition(tp);
  EXPECT_EQ(ps->log.log_end_offset(), 50);
  // Every record committed, in order.
  auto data = ps->log.Read(0, 1u << 20, 50).value();
  Slice rest(data);
  int64_t expect = 0;
  while (!rest.empty()) {
    auto view = kafka::RecordBatchView::Parse(rest).value();
    EXPECT_EQ(view.base_offset(), expect);
    expect = view.last_offset() + 1;
    rest.RemovePrefix(view.total_size());
  }
  EXPECT_EQ(expect, 50);
  // One WriteWithImm per record, and every byte is zero-copy.
  obs::MetricsRegistry& m = fabric_->obs().metrics;
  EXPECT_EQ(m.GetCounter("kd.direct.notify.write_imm")->value(), 50u);
  EXPECT_EQ(m.GetCounter("kd.direct.rdma_produce.zero_copy_bytes")->value(),
            m.GetCounter("kd.broker.0.produce.bytes")->value());
}

TEST_P(NotificationModeTest, SharedProduceEquivalent) {
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  int done = 0;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, char tag,
                int* done) -> sim::Co<void> {
    RdmaProducer p(
        t->sim_, *t->fabric_, *t->tcpnet_, t->fabric_->AddNode("n"),
        RdmaProducerConfig{.exclusive = false, .max_inflight = 4});
    KD_CHECK((co_await p.Connect(t->Leader(tp), tp)).ok());
    std::string v(100, tag);
    for (int i = 0; i < 30; i++) {
      KD_CHECK((co_await p.ProduceAsync(Slice(&tag, 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p.Flush()).ok());
    KD_CHECK(p.errors() == 0);
    (*done)++;
  };
  sim::Spawn(sim_, run(this, tp, 'a', &done));
  sim::Spawn(sim_, run(this, tp, 'b', &done));
  sim_.RunUntilDone([&]() { return done == 2; }, Seconds(120));
  ASSERT_EQ(done, 2);
  EXPECT_EQ(Leader(tp)->GetPartition(tp)->log.log_end_offset(), 60);
}

INSTANTIATE_TEST_SUITE_P(Modes, NotificationModeTest,
                         ::testing::Values(false),
                         [](const ::testing::TestParamInfo<bool>&) {
                           return "WriteWithImm";
                         });

}  // namespace
}  // namespace kd
}  // namespace kafkadirect
