// Crash/failover scenarios (DESIGN.md §15), in their own binary so the
// sanitizer scripts can run them directly:
//
//   - The acceptance scenario: a partition leader is killed mid-traffic
//     with produces in flight. Exactly one new leader emerges from the
//     ISR, no acknowledged record is lost, nothing is delivered twice,
//     and the consumer group rebalances and resumes from the replicated
//     committed offset. A second run reproduces the digest exactly.
//   - Zero-copy epoch fencing: a produce grant taken under an old leader
//     epoch must not commit after leadership moves.
//   - Consumer re-grant: RdmaConsumer::Resubscribe resumes delivery at
//     the new leader without loss or duplication.
//   - Rebalance storm: members joining/leaving every few heartbeats must
//     converge to a disjoint covering assignment.
#include <cstdlib>
#include <set>

#include <gtest/gtest.h>

#include "harness/harness.h"
#include "kafka/consumer.h"
#include "kafka/controller.h"
#include "kafka/group.h"
#include "kafka/producer.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace bench {
namespace {

using kafka::TopicPartitionId;

constexpr int kTotalRecords = 160;

std::string SeqKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08d", i);
  return buf;
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct ScenarioDigest {
  int32_t new_leader = -1;
  int64_t controller_term = 0;
  uint64_t produce_retries = 0;
  uint64_t delivered = 0;
  uint64_t delivered_hash = 0;
  int64_t final_committed = -1;

  bool operator==(const ScenarioDigest& o) const {
    return new_leader == o.new_leader &&
           controller_term == o.controller_term &&
           produce_retries == o.produce_retries && delivered == o.delivered &&
           delivered_hash == o.delivered_hash &&
           final_committed == o.final_committed;
  }
};

// Produces kTotalRecords sequence-keyed records, surviving the leader kill:
// on a failed produce it waits out the failover, re-resolves the leader,
// and — before resending the in-doubt record — scans the new leader's log
// to see whether the record already committed (ack lost). That replay of
// the broker's committed state is what keeps the log duplicate-free.
sim::Co<void> ProduceSequence(harness::TestCluster* cluster,
                              TopicPartitionId tp, uint64_t* retries,
                              bool* done) {
  net::NodeId node = cluster->AddClientNode("producer");
  std::unique_ptr<kafka::TcpProducer> producer;
  net::NodeId connected_to = 0;
  int64_t last_acked_offset = -1;
  for (int i = 0; i < kTotalRecords; i++) {
    std::string key = SeqKey(i);
    std::string value = "record-" + std::to_string(i);
    bool in_doubt = false;  // a produce of THIS record errored out
    for (;;) {
      kafka::Broker* leader = cluster->cluster().LeaderOf(tp);
      if (leader == nullptr ||
          !cluster->cluster().IsBrokerAlive(leader->id())) {
        co_await sim::Delay(cluster->sim(), Millis(2));
        continue;
      }
      if (producer == nullptr || connected_to != leader->node()) {
        producer = std::make_unique<kafka::TcpProducer>(
            cluster->sim(), cluster->tcp(), node, kafka::ProducerConfig{});
        Status cs = co_await producer->Connect(leader->node());
        if (!cs.ok()) {
          producer = nullptr;
          co_await sim::Delay(cluster->sim(), Millis(2));
          continue;
        }
        connected_to = leader->node();
      }
      if (in_doubt) {
        // Exactly-once resync: wait until the new leader's HWM covers its
        // whole log (its followers must report in before earlier appends
        // become readable), then scan for the in-doubt key.
        kafka::PartitionState* ps = leader->GetPartition(tp);
        if (ps == nullptr ||
            ps->log.high_watermark() < ps->log.log_end_offset()) {
          co_await sim::Delay(cluster->sim(), Millis(2));
          continue;
        }
        kafka::TcpConsumer scan(cluster->sim(), cluster->tcp(), node);
        Status ss = co_await scan.Connect(leader->node());
        if (!ss.ok()) {
          co_await sim::Delay(cluster->sim(), Millis(2));
          continue;
        }
        scan.Seek(last_acked_offset + 1);
        bool found = false;
        for (;;) {
          auto recs = co_await scan.Poll(tp);
          if (!recs.ok() || recs.value().empty()) break;
          for (const kafka::OwnedRecord& r : recs.value()) {
            if (r.key == key) {
              found = true;
              last_acked_offset = r.offset;
            }
          }
        }
        scan.Close();
        in_doubt = false;
        if (found) break;  // committed before the crash; do NOT resend
      }
      auto off = co_await producer->Produce(tp, Slice(key), Slice(value));
      if (off.ok()) {
        last_acked_offset = off.value();
        break;
      }
      (*retries)++;
      in_doubt = true;
      producer->Close();
      producer = nullptr;
      connected_to = 0;
      co_await sim::Delay(cluster->sim(), Millis(2));
    }
  }
  *done = true;
}

struct ConsumerState {
  uint64_t delivered = 0;
  uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  bool in_order = true;
  std::string first_error;
};

// Group-member consumer: joins "g", polls the partition leader, and
// commits after every delivered batch BEFORE polling again, so the
// committed offset always equals the delivered count. On a rebalance (or
// a broken leader) it re-resolves and resumes from the committed offset —
// duplicates or gaps show up as an out-of-order sequence key.
sim::Co<void> GroupConsume(harness::TestCluster* cluster, TopicPartitionId tp,
                           kafka::GroupMember* member, ConsumerState* state,
                           const bool* stop) {
  net::NodeId node = cluster->AddClientNode("consumer");
  std::unique_ptr<kafka::TcpConsumer> consumer;
  net::NodeId connected_to = 0;
  bool need_position = true;
  int64_t pending_commit = -1;  // delivered-up-to not yet committed
  while (!*stop) {
    if (!member->stable()) {
      co_await sim::Delay(cluster->sim(), Millis(1));
      continue;
    }
    kafka::Broker* leader = cluster->cluster().LeaderOf(tp);
    if (leader == nullptr ||
        !cluster->cluster().IsBrokerAlive(leader->id())) {
      co_await sim::Delay(cluster->sim(), Millis(1));
      continue;
    }
    if (consumer == nullptr || connected_to != leader->node()) {
      consumer = std::make_unique<kafka::TcpConsumer>(cluster->sim(),
                                                      cluster->tcp(), node);
      Status cs = co_await consumer->Connect(leader->node());
      if (!cs.ok()) {
        consumer = nullptr;
        co_await sim::Delay(cluster->sim(), Millis(1));
        continue;
      }
      connected_to = leader->node();
      need_position = true;
    }
    if (need_position) {
      int64_t resume;
      if (pending_commit >= 0) {
        // Delivered but uncommitted when the leader died: land the commit
        // at the new leader first, then resume right after it.
        Status cs = co_await consumer->CommitOffset(tp, "g", pending_commit);
        if (!cs.ok()) {
          consumer = nullptr;
          connected_to = 0;
          continue;
        }
        resume = pending_commit;
        pending_commit = -1;
      } else {
        auto committed = co_await consumer->FetchCommittedOffset(tp, "g");
        if (!committed.ok()) {
          consumer = nullptr;
          connected_to = 0;
          continue;
        }
        resume = committed.value() < 0 ? 0 : committed.value();
      }
      consumer->Seek(resume);
      need_position = false;
    }
    auto recs = co_await consumer->Poll(tp, 1 << 20, Millis(1));
    if (!recs.ok()) {
      consumer = nullptr;
      connected_to = 0;
      continue;
    }
    if (recs.value().empty()) {
      co_await sim::Delay(cluster->sim(), Millis(1));
      continue;
    }
    for (const kafka::OwnedRecord& r : recs.value()) {
      uint64_t seq = std::strtoull(r.key.c_str(), nullptr, 10);
      if (seq != state->delivered && state->in_order) {
        state->in_order = false;
        state->first_error = "expected seq " +
                             std::to_string(state->delivered) + ", got " +
                             r.key + " at offset " + std::to_string(r.offset);
      }
      state->delivered++;
      state->hash = Fnv1a(Fnv1a(state->hash, r.key), r.value);
    }
    pending_commit = consumer->position();
    Status cs = co_await consumer->CommitOffset(tp, "g", pending_commit);
    if (cs.ok()) {
      pending_commit = -1;
    } else {
      consumer = nullptr;
      connected_to = 0;
    }
  }
}

ScenarioDigest RunLeaderKillScenario() {
  harness::DeploymentConfig deploy;
  deploy.num_brokers = 3;
  deploy.broker.control_plane = true;
  harness::TestCluster cluster(deploy);
  KD_CHECK_OK(cluster.CreateTopic("t", 1, 3));
  TopicPartitionId tp{"t", 0};
  cluster.sim().RunUntil(Millis(30));  // controller election settles
  KD_CHECK(cluster.cluster().ControllerBroker() ==
           cluster.cluster().broker(0));

  ScenarioDigest digest;
  bool produced = false;
  bool stop_consumer = false;
  ConsumerState consumer_state;
  sim::Spawn(cluster.sim(), ProduceSequence(&cluster, tp,
                                            &digest.produce_retries,
                                            &produced));
  kafka::GroupMember::Config mcfg;
  mcfg.group = "g";
  mcfg.member = "c0";
  mcfg.topic = "t";
  harness::TestCluster* cl = &cluster;
  kafka::GroupMember member(
      cluster.sim(), cluster.tcp(), cluster.AddClientNode("member"),
      [cl]() -> uint64_t {
        kafka::Broker* c = cl->cluster().ControllerBroker();
        return c == nullptr ? kafka::GroupMember::kNoCoordinator : c->node();
      },
      mcfg);
  member.Start();
  sim::Spawn(cluster.sim(), GroupConsume(&cluster, tp, &member,
                                         &consumer_state, &stop_consumer));
  // Kill the partition leader (also the controller) mid-traffic: produces
  // are in flight — the sync producer always has a round trip outstanding.
  cluster.sim().Schedule(Millis(40),
                         [cl] { cl->cluster().KillBroker(0); });
  cluster.RunToFlag(&produced, Seconds(60));
  // Drain the consumer to the end of the produced sequence.
  bool drained = false;
  cluster.sim().RunUntilDone(
      [&] {
        drained = consumer_state.delivered >=
                  static_cast<uint64_t>(kTotalRecords);
        return drained;
      },
      cluster.sim().Now() + Seconds(60));
  KD_CHECK(drained) << "consumer stalled at " << consumer_state.delivered;
  stop_consumer = true;
  member.Stop();
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(100));

  // Exactly one alive broker leads the partition.
  int leaders = 0;
  for (int id = 1; id < 3; id++) {
    kafka::PartitionState* ps =
        cluster.cluster().broker(id)->GetPartition(tp);
    if (ps != nullptr && ps->is_leader) {
      leaders++;
      digest.new_leader = id;
      KD_CHECK(ps->leader_epoch >= 1);
      for (int32_t m : ps->isr) KD_CHECK(m != 0) << "dead broker in ISR";
    }
  }
  KD_CHECK(leaders == 1) << leaders << " leaders after failover";
  kafka::ControlPlane* cp =
      cluster.cluster().ControllerBroker()->control_plane();
  digest.controller_term = cp->term();
  digest.delivered = consumer_state.delivered;
  digest.delivered_hash = consumer_state.hash;
  KD_CHECK(consumer_state.in_order) << consumer_state.first_error;
  auto it = cluster.cluster()
                .broker(digest.new_leader)
                ->GetPartition(tp)
                ->committed_offsets.find("g");
  digest.final_committed =
      it == cluster.cluster()
                .broker(digest.new_leader)
                ->GetPartition(tp)
                ->committed_offsets.end()
          ? -1
          : it->second;
  return digest;
}

TEST(FailoverTest, LeaderKillMidTrafficExactlyOnce) {
  ScenarioDigest digest = RunLeaderKillScenario();
  // The lowest surviving ISR member wins the LEO tie-break chain.
  EXPECT_EQ(digest.new_leader, 1);
  EXPECT_GE(digest.controller_term, 2);
  // The kill landed mid-round-trip: at least one produce had to retry.
  EXPECT_GE(digest.produce_retries, 1u);
  // Every acknowledged record delivered exactly once, in sequence order.
  EXPECT_EQ(digest.delivered, static_cast<uint64_t>(kTotalRecords));
  // The group's committed offset marched with delivery.
  EXPECT_EQ(digest.final_committed, kTotalRecords);
}

// The whole deployment, control plane included, is deterministic: a
// second run of the same scenario in the same process (fresh QP numbers,
// warm allocator) reproduces the first digest exactly.
TEST(FailoverTest, LeaderKillDigestIdenticalAcrossRuns) {
  ScenarioDigest first = RunLeaderKillScenario();
  ScenarioDigest second = RunLeaderKillScenario();
  EXPECT_TRUE(first == second)
      << "first: leader=" << first.new_leader << " term="
      << first.controller_term << " retries=" << first.produce_retries
      << " delivered=" << first.delivered << " hash=" << first.delivered_hash
      << " committed=" << first.final_committed
      << " | second: leader=" << second.new_leader << " term="
      << second.controller_term << " retries=" << second.produce_retries
      << " delivered=" << second.delivered << " hash="
      << second.delivered_hash << " committed=" << second.final_committed;
}

sim::Co<void> FencedProduceBody(harness::TestCluster* cluster,
                                TopicPartitionId tp, bool* done) {
  net::NodeId node = cluster->AddClientNode("rdma-producer");
  kd::RdmaProducer producer(cluster->sim(), cluster->fabric(),
                            cluster->tcp(), node, kd::RdmaProducerConfig{});
  KD_CHECK_OK(co_await producer.Connect(cluster->Leader(tp), tp));
  auto off = co_await producer.Produce(Slice("k"), Slice("before-move"));
  KD_CHECK(off.ok()) << off.status().ToString();

  // Leadership moves away while the producer still holds its zero-copy
  // grant (epoch 0). The stale-epoch commit must be fenced, not applied.
  kafka::Broker* old_leader = cluster->cluster().broker(0);
  kafka::LeaderAndIsrRequest lai;
  lai.tp = tp;
  lai.leader_id = 1;
  lai.leader_node = cluster->cluster().broker(1)->node();
  lai.leader_epoch = 1;
  lai.from_controller = true;
  lai.isr = {1};
  lai.replicas = {1};
  old_leader->ApplyLeaderAndIsr(lai);

  int64_t leo_at_move =
      old_leader->GetPartition(tp)->log.log_end_offset();
  auto fenced = co_await producer.Produce(Slice("k"), Slice("after-move"));
  KD_CHECK(!fenced.ok()) << "stale-epoch produce committed";
  KD_CHECK(producer.errors() >= 1);
  KD_CHECK(old_leader->GetPartition(tp)->log.log_end_offset() ==
           leo_at_move)
      << "fenced produce still appended";
  producer.Close();
  *done = true;
}

TEST(FailoverTest, ZeroCopyProduceFencedAfterLeaderMove) {
  harness::DeploymentConfig deploy;
  deploy.num_brokers = 2;
  deploy.broker.control_plane = true;
  deploy.broker.rdma_produce = true;
  harness::TestCluster cluster(deploy);
  KD_CHECK_OK(cluster.CreateTopic("t", 1, 1));
  TopicPartitionId tp{"t", 0};
  cluster.sim().RunFor(Millis(30));
  bool done = false;
  sim::Spawn(cluster.sim(), FencedProduceBody(&cluster, tp, &done));
  cluster.RunToFlag(&done, Seconds(30));
}

sim::Co<void> ResubscribeBody(harness::TestCluster* cluster,
                              TopicPartitionId tp, bool* done) {
  net::NodeId node = cluster->AddClientNode("rdma-consumer");
  // Phase 1: 40 replicated records, all consumed at the original leader.
  kafka::TcpProducer producer(cluster->sim(), cluster->tcp(), node,
                              kafka::ProducerConfig{});
  KD_CHECK_OK(co_await producer.Connect(cluster->Leader(tp)->node()));
  for (int i = 0; i < 40; i++) {
    std::string key = SeqKey(i);
    auto off = co_await producer.Produce(tp, Slice(key), Slice("v"));
    KD_CHECK(off.ok()) << off.status().ToString();
  }
  kd::RdmaConsumer consumer(cluster->sim(), cluster->fabric(),
                            cluster->tcp(), node);
  KD_CHECK_OK(co_await consumer.Connect(cluster->Leader(tp)));
  KD_CHECK_OK(co_await consumer.Subscribe(tp, 0));
  int64_t next = 0;
  while (next < 40) {
    auto recs = co_await consumer.Poll(tp);
    KD_CHECK(recs.ok()) << recs.status().ToString();
    for (const kafka::OwnedRecord& r : recs.value()) {
      KD_CHECK(r.key == SeqKey(static_cast<int>(next)))
          << "got " << r.key << " want " << next;
      next++;
    }
    if (recs.value().empty()) {
      co_await sim::Delay(cluster->sim(), Millis(1));
    }
  }
  producer.Close();

  // Phase 2: the leader dies; the consumer re-grants at the new one and
  // delivery resumes at exactly the next undelivered offset.
  int32_t old_leader = cluster->Leader(tp)->id();
  cluster->cluster().KillBroker(old_leader);
  co_await sim::Delay(cluster->sim(), Millis(150));  // failover settles
  kd::KafkaDirectBroker* new_leader = cluster->Leader(tp);
  KD_CHECK(new_leader != nullptr && new_leader->id() != old_leader);
  KD_CHECK_OK(co_await consumer.Resubscribe(new_leader, tp, next));

  kafka::TcpProducer producer2(cluster->sim(), cluster->tcp(), node,
                               kafka::ProducerConfig{});
  KD_CHECK_OK(co_await producer2.Connect(new_leader->node()));
  for (int i = 40; i < 60; i++) {
    std::string key = SeqKey(i);
    auto off = co_await producer2.Produce(tp, Slice(key), Slice("v"));
    KD_CHECK(off.ok()) << off.status().ToString();
  }
  while (next < 60) {
    auto recs = co_await consumer.Poll(tp);
    KD_CHECK(recs.ok()) << recs.status().ToString();
    for (const kafka::OwnedRecord& r : recs.value()) {
      KD_CHECK(r.key == SeqKey(static_cast<int>(next)))
          << "got " << r.key << " want " << next;
      next++;
    }
    if (recs.value().empty()) {
      co_await sim::Delay(cluster->sim(), Millis(1));
    }
  }
  producer2.Close();
  consumer.Close();
  *done = true;
}

TEST(FailoverTest, RdmaConsumerResubscribesAtNewLeader) {
  harness::DeploymentConfig deploy;
  deploy.num_brokers = 3;
  deploy.broker.control_plane = true;
  deploy.broker.rdma_consume = true;
  harness::TestCluster cluster(deploy);
  KD_CHECK_OK(cluster.CreateTopic("t", 1, 3));
  TopicPartitionId tp{"t", 0};
  cluster.sim().RunFor(Millis(30));
  bool done = false;
  sim::Spawn(cluster.sim(), ResubscribeBody(&cluster, tp, &done));
  cluster.RunToFlag(&done, Seconds(60));
}

TEST(FailoverTest, RebalanceStormConvergesToDisjointCover) {
  harness::DeploymentConfig deploy;
  deploy.num_brokers = 1;
  deploy.broker.control_plane = true;
  harness::TestCluster cluster(deploy);
  KD_CHECK_OK(cluster.CreateTopic("t", 8, 1));
  cluster.sim().RunFor(Millis(30));
  harness::TestCluster* cl = &cluster;
  auto resolver = [cl]() -> uint64_t {
    kafka::Broker* c = cl->cluster().ControllerBroker();
    return c == nullptr ? kafka::GroupMember::kNoCoordinator : c->node();
  };
  net::NodeId node = cluster.AddClientNode("members");
  int name_counter = 0;
  auto make_member = [&]() {
    kafka::GroupMember::Config cfg;
    cfg.group = "g";
    cfg.member = "m" + std::to_string(name_counter++);
    cfg.topic = "t";
    auto m = std::make_unique<kafka::GroupMember>(cluster.sim(),
                                                  cluster.tcp(), node,
                                                  resolver, cfg);
    m->Start();
    return m;
  };
  std::vector<std::unique_ptr<kafka::GroupMember>> live;
  std::vector<std::unique_ptr<kafka::GroupMember>> retired;
  for (int i = 0; i < 4; i++) live.push_back(make_member());
  // Churn: every few heartbeats one member leaves and a fresh one joins.
  for (int round = 0; round < 10; round++) {
    cluster.sim().RunFor(Millis(8));
    size_t victim = round % live.size();
    live[victim]->Stop();
    retired.push_back(std::move(live[victim]));
    live[victim] = make_member();
  }
  cluster.sim().RunFor(Millis(400));  // settle
  std::set<int32_t> owned;
  int64_t generation = -1;
  for (const auto& m : live) {
    ASSERT_TRUE(m->stable());
    if (generation < 0) generation = m->generation();
    EXPECT_EQ(m->generation(), generation);
    for (int32_t p : m->assignment()) {
      EXPECT_TRUE(owned.insert(p).second) << "partition " << p
                                          << " assigned twice";
    }
  }
  EXPECT_EQ(owned.size(), 8u);  // full cover, no orphaned partitions
  uint64_t rebalances =
      cluster.fabric().obs().metrics.GetCounter("kd.cp.group.rebalances")
          ->value();
  EXPECT_GE(rebalances, 10u);
  for (auto& m : live) m->Stop();
  cluster.sim().RunFor(Millis(50));
}

}  // namespace
}  // namespace bench
}  // namespace kafkadirect
