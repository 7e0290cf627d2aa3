// Failover table (DESIGN.md §15): delivery-delay SLO through a leader
// kill. Four producer endpoints drive four partitions (rf=3) via the
// static endpoint→partition map shared with the §14 mux sweep
// (bench/endpoint_map.h); broker 0 — the initial controller AND the
// leader of partitions 0 and 3 — is killed mid-traffic. The endpoints
// riding the killed leader absorb the failover gap (visible as their max
// delivery delay); the others keep their steady-state delay. Every
// endpoint must still deliver its full sequence exactly once, in order.
//
// All reported metrics are virtual-time deterministic: the run is gated
// against BENCH_failover.baseline.json by tools/compare_failover.py in
// tier-1 (key-set drift fails both directions; `lost` and `dup` are
// zero-baseline invariants).
//
// Flags: --json=<path> writes the gated report; --slo_json=<path> dumps
// the per-tenant (tenant = endpoint + 1) delivery-delay SLO report from
// the always-on SloTracker (PR 9).
#include <cstdlib>
#include <fstream>

#include "bench/endpoint_map.h"
#include "harness/harness.h"
#include "kafka/consumer.h"
#include "kafka/controller.h"
#include "kafka/producer.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace bench {
namespace {

using kafka::TopicPartitionId;

constexpr int kBrokers = 3;
constexpr int kEndpoints = 4;
constexpr int kPartitions = 4;
constexpr int kRecordsPerEndpoint = 100;
constexpr int kRecordSize = 128;
constexpr int32_t kVictim = 0;  // controller + leader of partitions 0 and 3

std::string SeqKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08d", i);
  return buf;
}

struct EndpointStats {
  int endpoint = 0;
  int32_t partition = 0;
  uint64_t produced = 0;
  uint64_t retries = 0;
  uint64_t delivered = 0;
  bool in_order = true;
};

// Sync produce loop surviving the kill: on an error the record is
// in-doubt — before resending, scan the new leader's log to see whether
// it already committed (the ack, not the append, was lost). Identical
// protocol to tests/integration/failover_test.cc.
sim::Co<void> ProduceLoop(harness::TestCluster* cluster, EndpointStats* st,
                          int* done) {
  TopicPartitionId tp{"f", st->partition};
  net::NodeId node = cluster->AddClientNode("fo-producer");
  kafka::ProducerConfig pcfg;
  pcfg.producer_id = static_cast<uint64_t>(st->endpoint) + 1;  // SLO tenant
  std::unique_ptr<kafka::TcpProducer> producer;
  net::NodeId connected_to = 0;
  int64_t last_acked_offset = -1;
  std::string value(kRecordSize, 'f');
  for (int i = 0; i < kRecordsPerEndpoint; i++) {
    std::string key = SeqKey(i);
    bool in_doubt = false;
    for (;;) {
      kafka::Broker* leader = cluster->cluster().LeaderOf(tp);
      if (leader == nullptr ||
          !cluster->cluster().IsBrokerAlive(leader->id())) {
        co_await sim::Delay(cluster->sim(), Millis(2));
        continue;
      }
      if (producer == nullptr || connected_to != leader->node()) {
        producer = std::make_unique<kafka::TcpProducer>(
            cluster->sim(), cluster->tcp(), node, pcfg);
        Status cs = co_await producer->Connect(leader->node());
        if (!cs.ok()) {
          producer = nullptr;
          co_await sim::Delay(cluster->sim(), Millis(2));
          continue;
        }
        connected_to = leader->node();
      }
      if (in_doubt) {
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
        if (found) {
          st->produced++;
          break;  // committed before the crash; do NOT resend
        }
      }
      auto off = co_await producer->Produce(tp, Slice(key), Slice(value));
      if (off.ok()) {
        last_acked_offset = off.value();
        st->produced++;
        break;
      }
      st->retries++;
      in_doubt = true;
      producer->Close();
      producer = nullptr;
      connected_to = 0;
      co_await sim::Delay(cluster->sim(), Millis(2));
    }
  }
  (*done)++;
}

// Per-partition consumer: polls the current leader from the next
// undelivered offset, reconnecting across the failover. Delivery delay is
// attributed per tenant by the consumer's built-in SloTracker hook.
sim::Co<void> ConsumeLoop(harness::TestCluster* cluster, EndpointStats* st,
                          const bool* stop) {
  TopicPartitionId tp{"f", st->partition};
  net::NodeId node = cluster->AddClientNode("fo-consumer");
  std::unique_ptr<kafka::TcpConsumer> consumer;
  net::NodeId connected_to = 0;
  while (!*stop) {
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
      consumer->Seek(static_cast<int64_t>(st->delivered));
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
      if (seq != st->delivered) st->in_order = false;
      st->delivered++;
    }
  }
}

void Run(const std::string& json_path) {
  harness::DeploymentConfig deploy;
  deploy.num_brokers = kBrokers;
  deploy.broker.control_plane = true;
  harness::TestCluster cluster(deploy);
  KD_CHECK_OK(cluster.CreateTopic("f", kPartitions, kBrokers));
  cluster.sim().RunUntil(Millis(30));  // controller election settles
  KD_CHECK(cluster.cluster().ControllerBroker() ==
           cluster.cluster().broker(kVictim));

  EndpointStats stats[kEndpoints];
  int produced_done = 0;
  bool stop_consumers = false;
  for (int e = 0; e < kEndpoints; e++) {
    stats[e].endpoint = e;
    stats[e].partition =
        RouteForEndpoint("f", e, kPartitions, /*streams_per_endpoint=*/1)
            .tp.partition;
    sim::Spawn(cluster.sim(),
               ProduceLoop(&cluster, &stats[e], &produced_done));
    sim::Spawn(cluster.sim(),
               ConsumeLoop(&cluster, &stats[e], &stop_consumers));
  }
  harness::TestCluster* cl = &cluster;
  cluster.sim().Schedule(Millis(40),
                         [cl] { cl->cluster().KillBroker(kVictim); });
  cluster.RunUntilCount(&produced_done, kEndpoints);
  bool drained = false;
  cluster.sim().RunUntilDone(
      [&] {
        drained = true;
        for (const EndpointStats& st : stats) {
          drained = drained &&
                    st.delivered ==
                        static_cast<uint64_t>(kRecordsPerEndpoint);
        }
        return drained;
      },
      cluster.sim().Now() + Seconds(60));
  KD_CHECK(drained) << "a consumer stalled before full delivery";
  stop_consumers = true;
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(50));

  kafka::ControlPlane* cp =
      cluster.cluster().ControllerBroker()->control_plane();
  obs::MetricsRegistry& metrics = cluster.fabric().obs().metrics;
  uint64_t leader_moves = metrics.GetCounter("kd.cp.leader_moves")->value();
  uint64_t broker_deaths = metrics.GetCounter("kd.cp.broker_deaths")->value();

  harness::PrintFigureHeader(
      "Failover", "per-endpoint delivery through a leader kill (rf=3, "
                  "broker 0 killed at t=70ms)",
      {"endpoint", "partition", "failed_over", "produced", "retries",
       "delivered", "p50_us", "p99_us", "max_us"});
  uint64_t total_lost = 0;
  uint64_t total_dup = 0;
  for (const EndpointStats& st : stats) {
    const obs::TenantSlo* slo = cluster.fabric().obs().slo.Find(
        "f", static_cast<uint64_t>(st.endpoint) + 1);
    KD_CHECK(slo != nullptr);
    bool failed_over = st.partition % kBrokers == kVictim;
    uint64_t lost = st.delivered < st.produced ? st.produced - st.delivered
                                               : 0;
    uint64_t dup = st.delivered > st.produced ? st.delivered - st.produced
                                              : 0;
    total_lost += lost;
    total_dup += dup;
    KD_CHECK(st.in_order) << "endpoint " << st.endpoint
                          << " delivered out of order";
    harness::PrintRow(
        {std::to_string(st.endpoint), std::to_string(st.partition),
         failed_over ? "yes" : "no", std::to_string(st.produced),
         std::to_string(st.retries), std::to_string(st.delivered),
         harness::Cell(static_cast<double>(slo->delay.Percentile(50)) /
                       1000.0),
         harness::Cell(static_cast<double>(slo->delay.Percentile(99)) /
                       1000.0),
         harness::Cell(static_cast<double>(slo->delay.Percentile(100)) /
                       1000.0)});
  }
  KD_CHECK(total_lost == 0) << total_lost << " acknowledged records lost";
  KD_CHECK(total_dup == 0) << total_dup << " records delivered twice";
  std::printf(
      "\ncontroller term %lld after %llu broker death(s), %llu leader "
      "move(s); every endpoint delivered exactly once, in order.\n",
      static_cast<long long>(cp->term()),
      static_cast<unsigned long long>(broker_deaths),
      static_cast<unsigned long long>(leader_moves));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmarks\": [\n";
    for (int e = 0; e < kEndpoints; e++) {
      const EndpointStats& st = stats[e];
      const obs::TenantSlo* slo = cluster.fabric().obs().slo.Find(
          "f", static_cast<uint64_t>(e) + 1);
      uint64_t lost = st.delivered < st.produced ? st.produced - st.delivered
                                                 : 0;
      uint64_t dup = st.delivered > st.produced ? st.delivered - st.produced
                                                : 0;
      out << "    {\"name\": \"failover/endpoint_" << e
          << "\", \"partition\": " << st.partition
          << ", \"produced\": " << st.produced
          << ", \"retries\": " << st.retries
          << ", \"delivered\": " << st.delivered << ", \"lost\": " << lost
          << ", \"dup\": " << dup
          << ", \"p50_delay_ns\": " << slo->delay.Percentile(50)
          << ", \"p99_delay_ns\": " << slo->delay.Percentile(99)
          << ", \"max_delay_ns\": " << slo->delay.Percentile(100) << "},\n";
    }
    out << "    {\"name\": \"failover/cluster\""
        << ", \"controller_term\": " << cp->term()
        << ", \"broker_deaths\": " << broker_deaths
        << ", \"leader_moves\": " << leader_moves
        << ", \"sim_events\": " << cluster.sim().events_processed()
        << "}\n";
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace kafkadirect

int main(int argc, char** argv) {
  kafkadirect::harness::InitObsFromArgs(argc, argv);
  std::string json_path;
  const std::string kJson = "--json=";
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind(kJson, 0) == 0) json_path = arg.substr(kJson.size());
  }
  kafkadirect::bench::Run(json_path);
  return 0;
}
