// QP-churn tests for the §14 connection layer: connect/disconnect cycles
// under the SRQ, LRU eviction with transparent reconnect mid-produce, and
// eviction racing an in-flight ack. Every test ends with a standard-
// watcher sweep (signaled<=posted, SRQ bounds, admission bounds, ...) so
// a churn-induced invariant break fails loudly, and with the §14
// coroutine-aware shutdown walk so the tests stay leak-clean under ASan.
#include <gtest/gtest.h>

#include <vector>

#include "direct/mux_producer.h"
#include "kd_test_util.h"
#include "obs/monitor.h"

namespace kafkadirect {
namespace kd {
namespace {

using kafka::TopicPartitionId;

class QpChurnTest : public KdClusterTest {
 protected:
  kafka::BrokerConfig MuxConfig() {
    kafka::BrokerConfig cfg;
    cfg.rdma_produce = true;
    cfg.use_srq = true;
    cfg.cq_poll_batch = 16;
    cfg.qp_mux = true;
    cfg.connection_cache = true;
    cfg.metadata_arena = true;
    cfg.metadata_arena_slots = 4096;
    return cfg;
  }

  /// Standard-watcher sweep over the deployment's metrics; any violation
  /// (e.g. signaled > posted after churn) fails the test.
  void ExpectInvariantsHold() {
    obs::Monitor mon;
    obs::InstallStandardWatchers(mon);
    EXPECT_EQ(mon.CheckNow(fabric_->obs().metrics, sim_.Now()), 0);
    for (const auto& v : mon.violations()) {
      ADD_FAILURE() << "invariant '" << v.watcher << "': " << v.detail;
    }
  }
};

TEST_F(QpChurnTest, ConnectDisconnectCyclesUnderSrq) {
  auto cfg = MuxConfig();
  BootWithConfig(cfg, 1, 1, 1);
  TopicPartitionId tp{"t", 0};
  constexpr int kCycles = 8;
  constexpr uint32_t kStreams = 16;
  constexpr int kRecordsPerCycle = 4;
  bool done = false;
  uint64_t acked = 0;
  auto run = [](QpChurnTest* t, TopicPartitionId tp, uint64_t* acked,
                bool* done) -> sim::Co<void> {
    for (int cycle = 0; cycle < kCycles; cycle++) {
      // A fresh endpoint each cycle: new TCP ctrl, new QP, new SRQ share.
      MuxProducer endpoint(t->sim_, *t->fabric_, *t->tcpnet_,
                           t->client_node_, MuxProducerConfig{});
      KD_CHECK((co_await endpoint.Connect(t->Leader(tp), tp)).ok());
      auto open = co_await endpoint.OpenStreams(1, kStreams);
      KD_CHECK(open.ok());
      KD_CHECK(open.value().admitted == kStreams);
      for (int r = 0; r < kRecordsPerCycle; r++) {
        uint32_t stream = 1 + (static_cast<uint32_t>(r) * 5) % kStreams;
        auto off = co_await endpoint.Produce(stream, Slice("k", 1),
                                             Slice("churn-value"));
        KD_CHECK(off.ok()) << off.status().ToString();
      }
      KD_CHECK((co_await endpoint.Flush()).ok());
      KD_CHECK((co_await endpoint.CloseStreams(1, kStreams)).ok());
      *acked += endpoint.acked_records();
      endpoint.Close();
      // Let the broker's failure watcher retire the dead QP before the
      // next cycle connects, exercising the full churn path.
      co_await sim::Delay(t->sim_, Millis(1));
    }
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &acked, &done));
  RunToFlag(&done);
  EXPECT_EQ(acked, static_cast<uint64_t>(kCycles * kRecordsPerCycle));
  // No lost records: every produce the clients saw acked is committed.
  EXPECT_EQ(Leader(tp)->stats().rdma_produce_requests,
            static_cast<uint64_t>(kCycles * kRecordsPerCycle));
  // All churned QPs were retired; live connections don't accumulate.
  EXPECT_LE(Leader(tp)->live_rdma_qps(), 2u);
  ExpectInvariantsHold();
  DrainShutdown();
}

TEST_F(QpChurnTest, LruEvictionReconnectsTransparentlyMidProduce) {
  auto cfg = MuxConfig();
  // A one-entry cache: every new transport connection evicts the previous
  // one, so endpoint A is evicted the moment endpoint B connects.
  cfg.connection_cache_capacity = 1;
  BootWithConfig(cfg, 1, 2, 1);
  TopicPartitionId tp_a{"t", 0};
  TopicPartitionId tp_b{"t", 1};
  bool done = false;
  uint64_t a_reconnects = 0;
  uint64_t a_resynced = 0;
  auto run = [](QpChurnTest* t, TopicPartitionId tp_a, TopicPartitionId tp_b,
                uint64_t* a_reconnects, uint64_t* a_resynced,
                bool* done) -> sim::Co<void> {
    MuxProducer a(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                  MuxProducerConfig{});
    KD_CHECK((co_await a.Connect(t->Leader(tp_a), tp_a)).ok());
    KD_CHECK((co_await a.OpenStreams(1, 4)).ok());
    for (int r = 0; r < 3; r++) {
      KD_CHECK((co_await a.Produce(1 + static_cast<uint32_t>(r),
                                   Slice("k", 1), Slice("pre-evict")))
                   .ok());
    }
    // B's connection evicts A's transport QP from the one-entry cache.
    MuxProducer b(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                  MuxProducerConfig{});
    KD_CHECK((co_await b.Connect(t->Leader(tp_b), tp_b)).ok());
    // A produces straight through the eviction: the endpoint lazily
    // rebuilds its transport, re-opens its streams, and resumes.
    for (int r = 0; r < 5; r++) {
      auto off = co_await a.Produce(1 + static_cast<uint32_t>(r % 4),
                                    Slice("k", 1), Slice("post-evict"));
      KD_CHECK(off.ok()) << off.status().ToString();
    }
    KD_CHECK((co_await a.Flush()).ok());
    *a_reconnects = a.reconnects();
    *a_resynced = a.resynced_records();
    a.Close();
    b.Close();
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp_a, tp_b, &a_reconnects, &a_resynced, &done));
  RunToFlag(&done);
  EXPECT_GE(a_reconnects, 1u);
  const obs::Counter* evictions =
      fabric_->obs().metrics.FindCounter("kd.rdma.cache.evictions");
  ASSERT_NE(evictions, nullptr);
  EXPECT_GE(evictions->value(), 1u);
  // Exactly-once across the eviction: 8 produces on partition 0, 8
  // commits — nothing lost, nothing duplicated by the resync.
  EXPECT_EQ(Leader(tp_a)->stats().rdma_produce_requests, 8u);
  ExpectInvariantsHold();
  DrainShutdown();
}

TEST_F(QpChurnTest, EvictionRacesInFlightAck) {
  auto cfg = MuxConfig();
  BootWithConfig(cfg, 1, 1, 1);
  TopicPartitionId tp{"t", 0};
  constexpr int kInflight = 8;
  bool done = false;
  int completed = 0;
  uint64_t resynced = 0;
  auto producer_task = [](MuxProducer* endpoint, uint32_t stream,
                          int* completed) -> sim::Co<void> {
    auto off = co_await endpoint->Produce(stream, Slice("k", 1),
                                          Slice("race-value"));
    KD_CHECK(off.ok()) << off.status().ToString();
    (*completed)++;
  };
  auto run = [&producer_task](QpChurnTest* t, TopicPartitionId tp,
                              int* completed, uint64_t* resynced,
                              bool* done) -> sim::Co<void> {
    MuxProducer endpoint(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                         MuxProducerConfig{.max_inflight = kInflight});
    KD_CHECK((co_await endpoint.Connect(t->Leader(tp), tp)).ok());
    KD_CHECK((co_await endpoint.OpenStreams(1, kInflight)).ok());
    for (uint32_t s = 0; s < kInflight; s++) {
      sim::Spawn(t->sim_, producer_task(&endpoint, 1 + s, completed));
    }
    // Evict the transport while acks for the batch are in flight: some
    // records are committed broker-side but their acks die with the QP.
    // The reconnect grant replays each stream's committed count, so those
    // records resolve WITHOUT being re-sent (exactly-once) and the rest
    // re-post into the fresh file.
    co_await sim::Delay(t->sim_, Micros(40));
    KD_CHECK(t->Leader(tp)->EvictQp(endpoint.broker_qp_num()));
    while (*completed < kInflight) co_await sim::Delay(t->sim_, Micros(50));
    KD_CHECK((co_await endpoint.Flush()).ok());
    *resynced = endpoint.resynced_records();
    endpoint.Close();
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &completed, &resynced, &done));
  RunToFlag(&done);
  EXPECT_EQ(completed, kInflight);
  // No lost and no duplicated records despite the mid-ack eviction.
  EXPECT_EQ(Leader(tp)->stats().rdma_produce_requests,
            static_cast<uint64_t>(kInflight));
  ExpectInvariantsHold();
  DrainShutdown();
}

// Streams closed while the reconnect pass is re-opening them: the pass is
// suspended in SendOpen for the first stream when CloseStreams erases all
// of them, and must resume without touching the erased stream state.
TEST_F(QpChurnTest, CloseStreamsDuringReconnectReopen) {
  auto cfg = MuxConfig();
  BootWithConfig(cfg, 1, 1, 1);
  TopicPartitionId tp{"t", 0};
  constexpr uint32_t kStreams = 8;
  bool done = false;
  uint64_t reconnects = 0;
  auto run = [](QpChurnTest* t, TopicPartitionId tp, uint64_t* reconnects,
                bool* done) -> sim::Co<void> {
    MuxProducer endpoint(t->sim_, *t->fabric_, *t->tcpnet_, t->client_node_,
                         MuxProducerConfig{});
    KD_CHECK((co_await endpoint.Connect(t->Leader(tp), tp)).ok());
    KD_CHECK((co_await endpoint.OpenStreams(1, kStreams)).ok());
    KD_CHECK((co_await endpoint.Produce(1, Slice("k", 1), Slice("before")))
                 .ok());
    // A stream re-attaching to the replacement QP means the broker has
    // answered the pass's first single-stream re-open; the grant is still
    // on the wire, so the pass sits in SendOpen.
    const obs::Counter* reattached =
        t->fabric_->obs().metrics.FindCounter("kd.rdma.cache.reconnects");
    KD_CHECK(reattached != nullptr);
    const uint64_t reattached_before = reattached->value();
    KD_CHECK(t->Leader(tp)->EvictQp(endpoint.broker_qp_num()));
    while (reattached->value() == reattached_before) {
      co_await sim::Delay(t->sim_, 100);
    }
    KD_CHECK((co_await endpoint.CloseStreams(1, kStreams)).ok());
    // The endpoint stays usable once the pass completes.
    auto open = co_await endpoint.OpenStreams(100, 2);
    KD_CHECK(open.ok() && open.value().admitted == 2u);
    auto off = co_await endpoint.Produce(100, Slice("k", 1), Slice("after"));
    KD_CHECK(off.ok()) << off.status().ToString();
    KD_CHECK(endpoint.open_streams() == 2u);
    *reconnects = endpoint.reconnects();
    endpoint.Close();
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &reconnects, &done));
  RunToFlag(&done);
  EXPECT_EQ(reconnects, 1u);
  EXPECT_EQ(Leader(tp)->stats().rdma_produce_requests, 2u);
  ExpectInvariantsHold();
  DrainShutdown();
}

// One produce on a stream that may close under it; counts how it ended.
sim::Co<void> ProduceCounting(MuxProducer* endpoint, uint32_t stream,
                              int* acked, int* closed) {
  auto off = co_await endpoint->Produce(stream, Slice("k", 1),
                                        Slice("close-race"));
  if (off.ok()) {
    (*acked)++;
  } else {
    KD_CHECK(off.status().message() == "stream closed")
        << off.status().ToString();
    (*closed)++;
  }
}

// Waits up to 1 s of virtual time for `*a + *b` to reach `target`: a
// produce a close strands never returns.
sim::Co<void> WaitForCount(sim::Simulator& sim, const int* a, const int* b,
                           int target) {
  for (int i = 0; i < 1000 && *a + *b < target; i++) {
    co_await sim::Delay(sim, Millis(1));
  }
}

// Six produces on one stream, all still ahead of their post when the
// stream closes: four hold the stream's credits (the broker grants four)
// and two wait for one. All six must return "stream closed"; then a
// produce on another stream of the endpoint succeeds.
TEST_F(QpChurnTest, CloseStreamsFailsProducesNotYetPosted) {
  auto cfg = MuxConfig();
  BootWithConfig(cfg, 1, 1, 1);
  TopicPartitionId tp{"t", 0};
  static constexpr int kProduces = 6;
  // Outlives the run, so a stranded produce cannot outlive the endpoint.
  MuxProducer endpoint(sim_, *fabric_, *tcpnet_, client_node_,
                       MuxProducerConfig{.max_inflight = kProduces});
  int acked = 0;
  int closed = 0;
  bool done = false;
  auto run = [](QpChurnTest* t, MuxProducer* ep, TopicPartitionId tp,
                int* acked, int* closed, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await ep->Connect(t->Leader(tp), tp)).ok());
    KD_CHECK((co_await ep->OpenStreams(1, 2)).ok());
    for (int i = 0; i < kProduces; i++) {
      sim::Spawn(t->sim_, ProduceCounting(ep, 1, acked, closed));
    }
    co_await sim::Yield(t->sim_);  // the produces start and park
    KD_CHECK((co_await ep->CloseStreams(1, 1)).ok());
    co_await WaitForCount(t->sim_, acked, closed, kProduces);
    EXPECT_EQ(*closed, kProduces);
    EXPECT_EQ(*acked, 0);
    auto off = co_await ep->Produce(2, Slice("k", 1), Slice("after"));
    KD_CHECK(off.ok()) << off.status().ToString();
    *done = true;
  };
  sim::Spawn(sim_, run(this, &endpoint, tp, &acked, &closed, &done));
  RunToFlag(&done);
  EXPECT_EQ(Leader(tp)->stats().rdma_produce_requests, 1u);
  endpoint.Close();
  ExpectInvariantsHold();
  DrainShutdown();
}

// Records already posted when their stream closes complete with the
// broker's ack, so a committed record is never reported as failed. Two
// produces per stream, the close 5 to 40 us later while their acks are
// in flight; then a produce on another stream of the endpoint succeeds.
TEST_F(QpChurnTest, CloseStreamsLetsPostedRecordsCompleteWithTheirAck) {
  auto cfg = MuxConfig();
  BootWithConfig(cfg, 1, 1, 1);
  TopicPartitionId tp{"t", 0};
  const std::vector<sim::TimeNs> delays = {Micros(5), Micros(10),
                                           Micros(20), Micros(40)};
  MuxProducer endpoint(sim_, *fabric_, *tcpnet_, client_node_,
                       MuxProducerConfig{});
  int acked = 0;
  int closed = 0;
  bool done = false;
  auto run = [](QpChurnTest* t, MuxProducer* ep, TopicPartitionId tp,
                const std::vector<sim::TimeNs>* delays, int* acked,
                int* closed, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await ep->Connect(t->Leader(tp), tp)).ok());
    const uint32_t n = static_cast<uint32_t>(delays->size());
    KD_CHECK((co_await ep->OpenStreams(1, n + 1)).ok());
    for (uint32_t i = 0; i < n; i++) {
      for (int r = 0; r < 2; r++) {
        sim::Spawn(t->sim_, ProduceCounting(ep, 1 + i, acked, closed));
      }
      co_await sim::Delay(t->sim_, (*delays)[i]);
      KD_CHECK((co_await ep->CloseStreams(1 + i, 1)).ok());
      co_await WaitForCount(t->sim_, acked, closed, 2 * (1 + i));
      EXPECT_EQ(*acked + *closed, 2 * static_cast<int>(1 + i))
          << "close " << (*delays)[i] << " ns after the produces";
    }
    auto off = co_await ep->Produce(n + 1, Slice("k", 1), Slice("after"));
    KD_CHECK(off.ok()) << off.status().ToString();
    *done = true;
  };
  sim::Spawn(sim_, run(this, &endpoint, tp, &delays, &acked, &closed, &done));
  RunToFlag(&done);
  // Posted by 5 us, every record was committed and acked as such.
  EXPECT_EQ(acked, 2 * static_cast<int>(delays.size()));
  EXPECT_EQ(Leader(tp)->stats().rdma_produce_requests,
            static_cast<uint64_t>(acked + 1));
  endpoint.Close();
  ExpectInvariantsHold();
  DrainShutdown();
}

// A record queued for the reconnect's re-post (its transport died before
// the post) fails "stream closed" when its stream closes first, and the
// reconnect leaves it alone.
TEST_F(QpChurnTest, CloseStreamsFailsRecordsQueuedForReconnect) {
  auto cfg = MuxConfig();
  BootWithConfig(cfg, 1, 1, 1);
  TopicPartitionId tp{"t", 0};
  MuxProducer endpoint(sim_, *fabric_, *tcpnet_, client_node_,
                       MuxProducerConfig{});
  int acked = 0;
  int closed = 0;
  bool done = false;
  auto run = [](QpChurnTest* t, MuxProducer* ep, TopicPartitionId tp,
                int* acked, int* closed, bool* done) -> sim::Co<void> {
    KD_CHECK((co_await ep->Connect(t->Leader(tp), tp)).ok());
    KD_CHECK((co_await ep->OpenStreams(1, 2)).ok());
    KD_CHECK(t->Leader(tp)->EvictQp(ep->broker_qp_num()));
    while (ep->connected()) co_await sim::Delay(t->sim_, 100);
    // The reconnect backs off 100 us before rebuilding the transport.
    sim::Spawn(t->sim_, ProduceCounting(ep, 1, acked, closed));
    co_await sim::Delay(t->sim_, Micros(10));
    KD_CHECK((co_await ep->CloseStreams(1, 1)).ok());
    co_await WaitForCount(t->sim_, acked, closed, 1);
    EXPECT_EQ(*closed, 1);
    auto off = co_await ep->Produce(2, Slice("k", 1), Slice("after"));
    KD_CHECK(off.ok()) << off.status().ToString();
    *done = true;
  };
  sim::Spawn(sim_, run(this, &endpoint, tp, &acked, &closed, &done));
  RunToFlag(&done);
  EXPECT_EQ(acked, 0);
  EXPECT_EQ(endpoint.reconnects(), 1u);
  EXPECT_EQ(Leader(tp)->stats().rdma_produce_requests, 1u);
  endpoint.Close();
  ExpectInvariantsHold();
  DrainShutdown();
}

}  // namespace
}  // namespace kd
}  // namespace kafkadirect
