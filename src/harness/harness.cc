#include "harness/harness.h"

#include <cstdio>
#include <cstdlib>

#include "sim/awaitable.h"

namespace kafkadirect {
namespace harness {

namespace {
ObsOptions g_obs_options;
}  // namespace

void InitObsFromArgs(int argc, char** argv) {
  const std::string kMetrics = "--metrics_json=";
  const std::string kTrace = "--trace_json=";
  const std::string kSlo = "--slo_json=";
  const std::string kFlight = "--flight_dump=";
  const std::string kMonitor = "--monitor_period=";
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind(kMetrics, 0) == 0) {
      g_obs_options.metrics_json = arg.substr(kMetrics.size());
    } else if (arg.rfind(kTrace, 0) == 0) {
      g_obs_options.trace_json = arg.substr(kTrace.size());
    } else if (arg.rfind(kSlo, 0) == 0) {
      g_obs_options.slo_json = arg.substr(kSlo.size());
    } else if (arg.rfind(kFlight, 0) == 0) {
      g_obs_options.flight_dump = arg.substr(kFlight.size());
    } else if (arg.rfind(kMonitor, 0) == 0) {
      g_obs_options.monitor_period_ns =
          std::max<long long>(0, std::atoll(arg.c_str() + kMonitor.size()));
    } else if (arg == "--strict") {
      g_obs_options.strict = true;
    }
  }
}

const ObsOptions& obs_options() { return g_obs_options; }

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kKafka: return "Kafka";
    case SystemKind::kOsuKafka: return "OSU-Kafka";
    case SystemKind::kKdExclusive: return "KD-Exclusive";
    case SystemKind::kKdShared: return "KD-Shared";
  }
  return "?";
}

TestCluster::TestCluster(DeploymentConfig config) : config_(config) {
  KD_CHECK(config.sim_shards == 0 || config.sim_shards == 1)
      << "DeploymentConfig::sim_shards must be 0 or 1 (a deployment runs on "
         "one simulator), got "
      << config.sim_shards;
  fabric_ = std::make_unique<net::Fabric>(sim(), cost_);
  // Enable tracing before any broker/client defines tracks or records
  // spans, so a --trace_json run captures the full deployment lifecycle.
  if (config.enable_tracing || !g_obs_options.trace_json.empty()) {
    fabric_->obs().tracer.Enable();
  }
  obs::Observability& ob = fabric_->obs();
  if (g_obs_options.monitor_period_ns > 0 || g_obs_options.strict) {
    obs::InstallStandardWatchers(ob.monitor);
    ob.monitor.set_strict(g_obs_options.strict);
    // A violation leaves a breadcrumb in the recorder and dumps it before
    // any strict-mode abort, so the moments leading up to the failure are
    // preserved on disk.
    net::Fabric* fab = fabric_.get();
    ob.monitor.set_violation_hook(
        [fab](const obs::Monitor::Violation& v) {
          obs::Observability& o = fab->obs();
          o.flight.Record(v.at_ns, obs::FlightEventType::kViolation, 0, 0, 0);
          std::string path = g_obs_options.flight_dump.empty()
                                 ? "kd_flight_dump.json"
                                 : g_obs_options.flight_dump;
          o.flight.WriteChromeTraceFile(path);
        });
    if (g_obs_options.monitor_period_ns > 0) {
      ob.monitor.StartTicking(sim(), ob.metrics,
                              g_obs_options.monitor_period_ns);
    }
  }
  tcpnet_ = std::make_unique<tcpnet::Network>(sim(), *fabric_);
  cluster_ = std::make_unique<kafka::Cluster>(sim(), *fabric_, *tcpnet_,
                                              config.broker,
                                              config.num_brokers);
  cluster_->set_broker_factory(
      [](sim::Simulator& sim, net::Fabric& fabric, tcpnet::Network& tcp,
         kafka::BrokerConfig broker_config)
          -> std::unique_ptr<kafka::Broker> {
        return std::make_unique<kd::KafkaDirectBroker>(sim, fabric, tcp,
                                                       broker_config);
      });
  KD_CHECK_OK(cluster_->Start());
  cluster_->StartControlPlane();  // no-op unless broker.control_plane
  for (int b = 0; b < config.num_brokers; b++) {
    auto listener = std::make_shared<osu::OsuListener>(sim());
    osu_listeners_.push_back(listener);
    cluster_->broker(b)->ServeListener(listener);
  }
}

TestCluster::~TestCluster() {
  obs::Observability& ob = fabric_->obs();
  // Coroutine-aware teardown (DESIGN.md §14): stop the periodic monitor
  // tick, walk every broker's Shutdown() (QP disconnects, listener/channel
  // closes, CQ shutdowns), then drain the simulator so every woken coroutine
  // frame runs to completion and frees itself. Without this walk, frames
  // parked on never-signalled channels/CQs leak at process exit.
  ob.monitor.StopTicking();
  cluster_->Shutdown();
  sim_.RunUntil(sim_.Now() + Seconds(2));
  // Final invariant sweep at teardown — catches end-state violations even
  // when no tick landed after the last datapath event. Runs before the
  // file exports so a strict abort still leaves the flight dump behind
  // (via the violation hook).
  if (ob.monitor.num_watchers() > 0) {
    ob.monitor.CheckNow(ob.metrics, sim_.Now());
  }
  if (!g_obs_options.metrics_json.empty()) {
    // A pending-event peak that grows with the record count means timers
    // are piling up (DESIGN.md §8).
    ob.metrics.GetGauge("sim.events")
        ->Set(static_cast<int64_t>(sim_.events_processed()));
    ob.metrics.GetGauge("sim.pending_events")
        ->Set(static_cast<int64_t>(sim_.pending_events()));
    ob.metrics.GetGauge("sim.pending_events_peak")
        ->Set(static_cast<int64_t>(sim_.pending_events_peak()));
    KD_CHECK(ob.metrics.WriteJsonFile(g_obs_options.metrics_json))
        << "cannot write " << g_obs_options.metrics_json;
  }
  if (!g_obs_options.trace_json.empty()) {
    KD_CHECK(ob.tracer.WriteChromeTraceFile(g_obs_options.trace_json))
        << "cannot write " << g_obs_options.trace_json;
  }
  if (!g_obs_options.slo_json.empty()) {
    KD_CHECK(ob.slo.WriteJsonFile(g_obs_options.slo_json))
        << "cannot write " << g_obs_options.slo_json;
  }
  if (!g_obs_options.flight_dump.empty()) {
    KD_CHECK(ob.flight.WriteChromeTraceFile(g_obs_options.flight_dump))
        << "cannot write " << g_obs_options.flight_dump;
  }
}

net::NodeId TestCluster::AddClientNode(const std::string& name) {
  net::NodeId node = fabric_->AddNode(name);
  client_rnics_[node] = std::make_unique<rdma::Rnic>(sim(), *fabric_, node);
  return node;
}

rdma::Rnic& TestCluster::ClientRnic(net::NodeId node) {
  return *client_rnics_.at(node);
}

void TestCluster::RunToFlag(const bool* flag, sim::TimeNs deadline) {
  sim_.RunUntilDone([flag]() { return *flag; }, sim_.Now() + deadline);
  KD_CHECK(*flag) << "workload did not finish before the deadline";
}

void TestCluster::RunUntilCount(const int* counter, int target,
                                sim::TimeNs deadline) {
  sim_.RunUntilDone([counter, target]() { return *counter >= target; },
                    sim_.Now() + deadline);
  KD_CHECK(*counter >= target) << "workload did not finish: " << *counter
                               << "/" << target;
}

namespace {

uint64_t NextTopicId() {
  static uint64_t next = 0;
  return next++;
}

/// State shared by all producers of one workload run.
struct ProduceRun {
  int connected = 0;
  int done = 0;
  sim::TimeNs started_at = 0;
  std::unique_ptr<sim::Event> go;
  WorkloadResult result;
};

sim::Co<void> OneProducer(TestCluster* cluster, SystemKind kind,
                          ProduceOptions options, std::string topic, int index,
                          ProduceRun* run) {
  kafka::TopicPartitionId tp{topic, index % options.partitions};
  net::NodeId node =
      cluster->AddClientNode("producer-" + std::to_string(index));
  std::string value(options.record_size, 'w');
  // SLO tenancy: producer i is tenant i+1 (0 = untagged/preload). The id
  // lands in every batch header's producer_id, which consumers read back
  // to attribute delivery delay and goodput per tenant.
  const uint64_t tenant = static_cast<uint64_t>(index) + 1;

  // Connect phase.
  std::unique_ptr<kafka::TcpProducer> tcp_producer;
  std::unique_ptr<kd::RdmaProducer> rdma_producer;
  switch (kind) {
    case SystemKind::kKafka: {
      tcp_producer = std::make_unique<kafka::TcpProducer>(
          cluster->sim(), cluster->tcp(), node,
          kafka::ProducerConfig{.acks = options.acks,
                                .producer_id = tenant,
                                .max_inflight = options.max_inflight});
      KD_CHECK_OK(co_await tcp_producer->Connect(cluster->Leader(tp)->node()));
      break;
    }
    case SystemKind::kOsuKafka: {
      tcp_producer = std::make_unique<kafka::TcpProducer>(
          cluster->sim(), cluster->tcp(), node,
          kafka::ProducerConfig{.acks = options.acks,
                                .producer_id = tenant,
                                .max_inflight = options.max_inflight});
      auto chan = co_await osu::OsuConnect(
          cluster->sim(), cluster->fabric(), cluster->ClientRnic(node),
          cluster->Leader(tp), cluster->OsuListenerOf(tp));
      KD_CHECK(chan.ok()) << chan.status().ToString();
      KD_CHECK_OK(tcp_producer->ConnectWith(chan.value()));
      break;
    }
    case SystemKind::kKdExclusive:
    case SystemKind::kKdShared: {
      rdma_producer = std::make_unique<kd::RdmaProducer>(
          cluster->sim(), cluster->fabric(), cluster->tcp(), node,
          kd::RdmaProducerConfig{
              .exclusive = kind == SystemKind::kKdExclusive,
              .max_inflight = options.max_inflight,
              .producer_id = tenant});
      kd::KafkaDirectBroker* leader = cluster->Leader(tp);
      KD_CHECK_OK(co_await rdma_producer->Connect(leader, tp));
      break;
    }
  }

  // Barrier: bandwidth excludes connection setup.
  run->connected++;
  if (run->connected == options.producers) {
    run->started_at = cluster->sim().Now();
    run->go->Set();
  } else {
    co_await run->go->Wait();
  }

  for (int i = 0; i < options.records_per_producer; i++) {
    if (options.max_inflight == 1) {
      if (tcp_producer != nullptr) {
        auto off =
            co_await tcp_producer->Produce(tp, Slice("k", 1), Slice(value));
        if (!off.ok()) run->result.errors++;
      } else {
        auto off =
            co_await rdma_producer->Produce(Slice("k", 1), Slice(value));
        if (!off.ok()) run->result.errors++;
      }
    } else if (tcp_producer != nullptr) {
      Status st = co_await tcp_producer->ProduceAsync(tp, Slice("k", 1),
                                                      Slice(value));
      if (!st.ok()) run->result.errors++;
    } else {
      Status st = co_await rdma_producer->ProduceAsync(Slice("k", 1),
                                                       Slice(value));
      if (!st.ok()) run->result.errors++;
    }
  }
  if (tcp_producer != nullptr) {
    (void)co_await tcp_producer->Flush();
  } else {
    (void)co_await rdma_producer->Flush();
  }

  // Merge stats into the shared run result.
  const Histogram& src = tcp_producer != nullptr
                             ? tcp_producer->latencies()
                             : rdma_producer->latencies();
  run->result.latency.Merge(src);
  run->result.records += tcp_producer != nullptr
                             ? tcp_producer->acked_records()
                             : rdma_producer->acked_records();
  run->result.errors += tcp_producer != nullptr ? tcp_producer->errors()
                                                : rdma_producer->errors();
  run->result.elapsed_ns = cluster->sim().Now() - run->started_at;
  run->done++;
}

}  // namespace

WorkloadResult RunProduceWorkload(TestCluster& cluster, SystemKind kind,
                                  const ProduceOptions& options) {
  std::string topic = options.topic + "-" + std::to_string(NextTopicId());
  KD_CHECK_OK(cluster.CreateTopic(topic, options.partitions,
                                  options.replication_factor));
  ProduceRun run;
  run.go = std::make_unique<sim::Event>(cluster.sim());
  for (int i = 0; i < options.producers; i++) {
    sim::Spawn(cluster.sim(),
               OneProducer(&cluster, kind, options, topic, i, &run));
  }
  cluster.RunUntilCount(&run.done, options.producers);
  WorkloadResult result = std::move(run.result);
  double payload = static_cast<double>(options.record_size) *
                   static_cast<double>(result.records);
  if (result.elapsed_ns > 0) {
    result.mib_per_sec = RateMiBps(payload,
                                   static_cast<double>(result.elapsed_ns));
  }
  return result;
}

namespace {

sim::Co<void> PreloadTopic(TestCluster* cluster, std::string topic,
                           int records, size_t size, bool* done) {
  kafka::TopicPartitionId tp{topic, 0};
  net::NodeId node = cluster->AddClientNode("preloader");
  kafka::TcpProducer producer(
      cluster->sim(), cluster->tcp(), node,
      kafka::ProducerConfig{.acks = -1, .max_inflight = 32});
  KD_CHECK_OK(co_await producer.Connect(cluster->Leader(tp)->node()));
  std::string value(size, 'p');
  for (int i = 0; i < records; i++) {
    KD_CHECK_OK(co_await producer.ProduceAsync(tp, Slice("k", 1),
                                               Slice(value)));
  }
  KD_CHECK_OK(co_await producer.Flush());
  producer.Close();
  *done = true;
}

sim::Co<void> ConsumeAll(TestCluster* cluster, SystemKind kind,
                         ConsumeOptions options, std::string topic,
                         WorkloadResult* result, bool* done) {
  kafka::TopicPartitionId tp{topic, 0};
  net::NodeId node = cluster->AddClientNode("consumer");
  uint64_t consumed = 0;
  sim::TimeNs start = 0;
  if (kind == SystemKind::kKafka || kind == SystemKind::kOsuKafka) {
    kafka::TcpConsumer consumer(cluster->sim(), cluster->tcp(), node);
    if (kind == SystemKind::kKafka) {
      KD_CHECK_OK(co_await consumer.Connect(cluster->Leader(tp)->node()));
    } else {
      auto chan = co_await osu::OsuConnect(
          cluster->sim(), cluster->fabric(), cluster->ClientRnic(node),
          cluster->Leader(tp), cluster->OsuListenerOf(tp));
      KD_CHECK(chan.ok());
      consumer.ConnectWith(chan.value());
    }
    uint32_t max_bytes = static_cast<uint32_t>(
        options.records_per_poll * (options.record_size + 128));
    start = cluster->sim().Now();
    while (consumed < static_cast<uint64_t>(options.preload_records)) {
      sim::TimeNs poll_start = cluster->sim().Now();
      auto records = co_await consumer.Poll(tp, max_bytes);
      KD_CHECK(records.ok()) << records.status().ToString();
      if (records.value().empty()) break;
      result->latency.Add(cluster->sim().Now() - poll_start);
      consumed += records.value().size();
    }
  } else {
    kd::RdmaConsumer consumer(
        cluster->sim(), cluster->fabric(), cluster->tcp(), node,
        kd::RdmaConsumerConfig{.ring_consume = options.ring_consume});
    KD_CHECK_OK(co_await consumer.Connect(cluster->Leader(tp)));
    KD_CHECK_OK(co_await consumer.Subscribe(tp, 0));
    start = cluster->sim().Now();
    int empty_streak = 0;
    while (consumed < static_cast<uint64_t>(options.preload_records) &&
           empty_streak < 3) {
      sim::TimeNs poll_start = cluster->sim().Now();
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok()) << records.status().ToString();
      if (records.value().empty()) {
        empty_streak++;
        continue;
      }
      empty_streak = 0;
      result->latency.Add(cluster->sim().Now() - poll_start);
      consumed += records.value().size();
    }
  }
  result->records = consumed;
  result->elapsed_ns = cluster->sim().Now() - start;
  *done = true;
}

}  // namespace

WorkloadResult RunConsumeWorkload(TestCluster& cluster, SystemKind kind,
                                  const ConsumeOptions& options) {
  std::string topic = options.topic + "-" + std::to_string(NextTopicId());
  KD_CHECK_OK(cluster.CreateTopic(topic, 1, options.replication_factor));
  bool loaded = false;
  sim::Spawn(cluster.sim(),
             PreloadTopic(&cluster, topic, options.preload_records,
                          options.record_size, &loaded));
  cluster.RunToFlag(&loaded);

  WorkloadResult result;
  bool done = false;
  sim::Spawn(cluster.sim(),
             ConsumeAll(&cluster, kind, options, topic, &result, &done));
  cluster.RunToFlag(&done);
  double payload = static_cast<double>(options.record_size) *
                   static_cast<double>(result.records);
  if (result.elapsed_ns > 0) {
    result.mib_per_sec =
        RateMiBps(payload, static_cast<double>(result.elapsed_ns));
  }
  return result;
}

namespace {

/// Drains `topic` until `total` records have been delivered, feeding the
/// per-record delivery delay (consume time - produce timestamp) into the
/// shared result. The per-tenant split lands in obs().slo via the consumer
/// internals themselves.
sim::Co<void> EndToEndConsumer(TestCluster* cluster, SystemKind kind,
                               std::string topic, int total,
                               WorkloadResult* result, int* consumed) {
  kafka::TopicPartitionId tp{topic, 0};
  net::NodeId node = cluster->AddClientNode("slo-consumer");
  sim::TimeNs start = cluster->sim().Now();
  auto account = [&](const std::vector<kafka::OwnedRecord>& records) {
    sim::TimeNs now = cluster->sim().Now();
    for (const kafka::OwnedRecord& r : records) {
      result->latency.Add(now - r.timestamp);
    }
    *consumed += static_cast<int>(records.size());
    result->records += records.size();
  };
  if (kind == SystemKind::kKafka || kind == SystemKind::kOsuKafka) {
    kafka::TcpConsumer consumer(cluster->sim(), cluster->tcp(), node);
    if (kind == SystemKind::kKafka) {
      KD_CHECK_OK(co_await consumer.Connect(cluster->Leader(tp)->node()));
    } else {
      auto chan = co_await osu::OsuConnect(
          cluster->sim(), cluster->fabric(), cluster->ClientRnic(node),
          cluster->Leader(tp), cluster->OsuListenerOf(tp));
      KD_CHECK(chan.ok()) << chan.status().ToString();
      consumer.ConnectWith(chan.value());
    }
    while (*consumed < total) {
      auto records = co_await consumer.Poll(tp, 1 << 20);
      KD_CHECK(records.ok()) << records.status().ToString();
      account(records.value());
    }
  } else {
    kd::RdmaConsumer consumer(cluster->sim(), cluster->fabric(),
                              cluster->tcp(), node);
    KD_CHECK_OK(co_await consumer.Connect(cluster->Leader(tp)));
    KD_CHECK_OK(co_await consumer.Subscribe(tp, 0));
    while (*consumed < total) {
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok()) << records.status().ToString();
      account(records.value());
    }
  }
  result->elapsed_ns = cluster->sim().Now() - start;
}

}  // namespace

WorkloadResult RunEndToEndWorkload(TestCluster& cluster, SystemKind kind,
                                   const EndToEndOptions& options) {
  std::string topic = options.topic + "-" + std::to_string(NextTopicId());
  KD_CHECK_OK(cluster.CreateTopic(topic, 1, options.replication_factor));

  ProduceOptions produce;
  produce.partitions = 1;
  produce.producers = options.producers;
  produce.records_per_producer = options.records_per_producer;
  produce.record_size = options.record_size;
  produce.max_inflight = options.max_inflight;
  produce.replication_factor = options.replication_factor;

  ProduceRun run;
  run.go = std::make_unique<sim::Event>(cluster.sim());
  for (int i = 0; i < options.producers; i++) {
    sim::Spawn(cluster.sim(),
               OneProducer(&cluster, kind, produce, topic, i, &run));
  }
  WorkloadResult result;
  int consumed = 0;
  const int total = options.producers * options.records_per_producer;
  sim::Spawn(cluster.sim(),
             EndToEndConsumer(&cluster, kind, topic, total, &result,
                              &consumed));
  // Wait for the consumer AND every producer (acks may land just after the
  // last delivery) so no coroutine is torn down mid-flight.
  cluster.sim().RunUntilDone(
      [&] { return consumed >= total && run.done == options.producers; },
      cluster.sim().Now() + Seconds(3600));
  KD_CHECK(consumed >= total && run.done == options.producers)
      << "end-to-end workload did not finish: consumed=" << consumed << "/"
      << total << " producers=" << run.done << "/" << options.producers;
  result.errors = run.result.errors;
  double payload = static_cast<double>(options.record_size) *
                   static_cast<double>(result.records);
  if (result.elapsed_ns > 0) {
    result.mib_per_sec =
        RateMiBps(payload, static_cast<double>(result.elapsed_ns));
  }
  return result;
}

namespace {

sim::Co<void> EmptyFetchClient(TestCluster* cluster, SystemKind kind,
                               std::string topic, int iterations,
                               sim::TimeNs until, Histogram* latency,
                               uint64_t* polls, int* done) {
  kafka::TopicPartitionId tp{topic, 0};
  net::NodeId node = cluster->AddClientNode("poller");
  if (kind == SystemKind::kKafka || kind == SystemKind::kOsuKafka) {
    kafka::TcpConsumer consumer(cluster->sim(), cluster->tcp(), node);
    KD_CHECK_OK(co_await consumer.Connect(cluster->Leader(tp)->node()));
    // Position at the log end so every fetch is empty.
    consumer.Seek(cluster->Leader(tp)->GetPartition(tp)->log.log_end_offset());
    for (int i = 0; iterations == 0 || i < iterations; i++) {
      if (until != 0 && cluster->sim().Now() >= until) break;
      sim::TimeNs start = cluster->sim().Now();
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok() && records.value().empty());
      if (latency != nullptr) {
        latency->Add(cluster->sim().Now() - start);
      }
      if (polls != nullptr) (*polls)++;
    }
  } else {
    kd::RdmaConsumer consumer(cluster->sim(), cluster->fabric(),
                              cluster->tcp(), node);
    KD_CHECK_OK(co_await consumer.Connect(cluster->Leader(tp)));
    KD_CHECK_OK(co_await consumer.Subscribe(
        tp, cluster->Leader(tp)->GetPartition(tp)->log.log_end_offset()));
    for (int i = 0; iterations == 0 || i < iterations; i++) {
      if (until != 0 && cluster->sim().Now() >= until) break;
      sim::TimeNs start = cluster->sim().Now();
      auto records = co_await consumer.Poll(tp);
      KD_CHECK(records.ok() && records.value().empty());
      if (latency != nullptr) {
        latency->Add(cluster->sim().Now() - start);
      }
      if (polls != nullptr) (*polls)++;
    }
  }
  (*done)++;
}

}  // namespace

WorkloadResult RunEmptyFetchLatency(TestCluster& cluster, SystemKind kind,
                                    int iterations) {
  std::string topic = "empty-" + std::to_string(NextTopicId());
  KD_CHECK_OK(cluster.CreateTopic(topic, 1, 1));
  WorkloadResult result;
  int done = 0;
  uint64_t polls = 0;
  sim::Spawn(cluster.sim(),
             EmptyFetchClient(&cluster, kind, topic, iterations, 0,
                              &result.latency, &polls, &done));
  cluster.RunUntilCount(&done, 1);
  result.records = polls;
  return result;
}

double RunEmptyFetchThroughput(TestCluster& cluster, SystemKind kind,
                               int clients, sim::TimeNs duration) {
  std::string topic = "flood-" + std::to_string(NextTopicId());
  KD_CHECK_OK(cluster.CreateTopic(topic, 1, 1));
  int done = 0;
  uint64_t polls = 0;
  sim::TimeNs until = cluster.sim().Now() + duration;
  for (int c = 0; c < clients; c++) {
    sim::Spawn(cluster.sim(),
               EmptyFetchClient(&cluster, kind, topic, 0, until, nullptr,
                                &polls, &done));
  }
  cluster.RunUntilCount(&done, clients, duration * 4 + Seconds(60));
  return static_cast<double>(polls) /
         (static_cast<double>(duration) / 1e9);
}

// ---------------------------------------------------------------------------
// Table output
// ---------------------------------------------------------------------------

namespace {
void PrintCells(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); i++) {
    std::printf("%-14s", cells[i].c_str());
  }
  std::printf("\n");
}
}  // namespace

void PrintFigureHeader(const std::string& figure, const std::string& title,
                       const std::vector<std::string>& columns) {
  std::printf("\n== %s: %s ==\n", figure.c_str(), title.c_str());
  PrintCells(columns);
  for (size_t i = 0; i < columns.size(); i++) std::printf("%-14s", "------");
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells) { PrintCells(cells); }

std::string Cell(double v, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::vector<size_t> PaperRecordSizes(size_t lo, size_t hi) {
  std::vector<size_t> sizes;
  for (size_t s = lo; s <= hi; s *= 2) sizes.push_back(s);
  return sizes;
}

}  // namespace harness
}  // namespace kafkadirect
