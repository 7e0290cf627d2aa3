// Regression test for the produce-purgatory timer pile-up (DESIGN.md §8).
//
// An acks=all produce waits in purgatory until the high watermark covers
// it, through Event::WaitFor with a 30 s timeout, and every HWM pulse wakes
// each waiter, which then waits again with a fresh timeout. Unless a
// wakeup cancels the timeout it leaves behind, every record leaves at
// least one dead 30 s timer queued, so the simulator's pending events
// grow with the record count. With the cancellation they stay bounded by
// live state, whatever the record count.
//
// A waiter woken by its broker's shutdown must also exit, not park again:
// no timer may outlive the drain.
#include <gtest/gtest.h>

#include <string>

#include "kd_test_util.h"

namespace kafkadirect {
namespace kd {
namespace {

using kafka::TopicPartitionId;

// Far below the 10,000 dead timers one batch would leave behind.
constexpr uint64_t kPendingBound = 5000;
constexpr int kBatch = 10000;

class PurgatoryTest : public KdClusterTest {
 protected:
  /// Runs `batch` to completion twice (10,000 then 20,000 records in all)
  /// and checks the pending-event peak after each.
  template <typename Batch>
  void ProduceTwiceAndCheck(Batch batch) {
    for (int total : {kBatch, 2 * kBatch}) {
      bool done = false;
      sim::Spawn(sim_, batch(&done));
      RunToFlag(&done);
      EXPECT_LT(sim_.pending_events_peak(), kPendingBound)
          << "after " << total << " records";
    }
  }
};

TEST_F(PurgatoryTest, RdmaAcksAllKeepsPendingEventsBounded) {
  Boot(2, 1, 2, /*rdma_produce=*/true, /*rdma_replicate=*/true);
  const TopicPartitionId tp{"t", 0};
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true});
  bool connected = false;
  sim::Spawn(sim_, [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                      bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    *done = true;
  }(this, &producer, tp, &connected));
  RunToFlag(&connected);
  std::vector<int64_t> offsets;
  ProduceTwiceAndCheck([&](bool* done) {
    return RdmaProduceN(&producer, kBatch, 100, &offsets, done);
  });
  ASSERT_EQ(offsets.size(), 2u * kBatch);
  EXPECT_EQ(offsets.back(), 2 * kBatch - 1);
  producer.Close();
  DrainShutdown();
}

TEST_F(PurgatoryTest, TcpAcksAllKeepsPendingEventsBounded) {
  Boot(2, 1, 2, /*rdma_produce=*/false, /*rdma_replicate=*/false);
  const TopicPartitionId tp{"t", 0};
  kafka::TcpProducer producer(sim_, *tcpnet_, client_node_,
                              kafka::ProducerConfig{.acks = -1});
  bool connected = false;
  sim::Spawn(sim_, [](KdClusterTest* t, kafka::TcpProducer* p,
                      TopicPartitionId tp, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp)->node())).ok());
    *done = true;
  }(this, &producer, tp, &connected));
  RunToFlag(&connected);
  int64_t last = -1;
  ProduceTwiceAndCheck([&](bool* done) {
    return [](kafka::TcpProducer* p, TopicPartitionId tp, int64_t* last,
              bool* done) -> sim::Co<void> {
      const std::string value(100, 't');
      for (int i = 0; i < kBatch; i++) {
        auto off = co_await p->Produce(tp, Slice("k", 1), Slice(value));
        KD_CHECK(off.ok()) << off.status().ToString();
        *last = off.value();
      }
      *done = true;
    }(&producer, tp, &last, done);
  });
  EXPECT_EQ(last, 2 * kBatch - 1);
  producer.Close();
  DrainShutdown();
}

// A produce parked in the RDMA purgatory when its broker shuts down: the
// shutdown's HWM pulse wakes it with the HWM still short of the record.
// A dead broker acks nobody, so the waiter must exit rather than park for
// another 30 s timeout that outlives the drain.
TEST_F(PurgatoryTest, RdmaParkedAckExitsOnBrokerShutdown) {
  Boot(2, 1, 2, /*rdma_produce=*/true, /*rdma_replicate=*/true);
  const TopicPartitionId tp{"t", 0};
  KafkaDirectBroker* leader = Leader(tp);
  RdmaProducer producer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaProducerConfig{.exclusive = true});
  bool connected = false;
  sim::Spawn(sim_, [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                      bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    *done = true;
  }(this, &producer, tp, &connected));
  RunToFlag(&connected);
  // Without the follower the HWM cannot cover the record, so its ack parks.
  cluster_->broker(1 - leader->id())->Shutdown();
  bool sent = false;
  sim::Spawn(sim_, [](RdmaProducer* p, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->ProduceAsync(Slice("k", 1), Slice("v", 1))).ok());
    *done = true;
  }(&producer, &sent));
  RunToFlag(&sent);
  sim_.RunFor(Millis(10));
  const kafka::PartitionState* ps = leader->GetPartition(tp);
  ASSERT_EQ(ps->log.log_end_offset(), 1);  // committed on the leader
  ASSERT_EQ(ps->log.high_watermark(), 0);  // but not acked
  producer.Close();
  DrainShutdown();
  EXPECT_EQ(sim_.pending_events(), 0u);
}

}  // namespace
}  // namespace kd
}  // namespace kafkadirect
