// kd_stream and tcp_stream: one open-loop arrival process, sent once over
// KafkaDirect (shared one-sided produce, RDMA replication, RDMA consume)
// and once over unmodified Kafka/TCP.
//
// `tenants` independent Poisson sources of 1 KiB records offer kOfferedRate
// in total to one partition (rf=2, acks=all). A generator per tenant
// stamps each record at its due time and appends it to its producer
// client's FIFO; `window` sender coroutines per client take records in
// FIFO order and call the producer's synchronous Produce. So a client
// never has more than `window` records in flight, and a stalled system
// shows up as queueing counted from the due time, never as a slower
// generator. One consumer polls the partition concurrently.
//
// The listed workloads put their producer clients in the configuration
// that keeps every tenant's records in order at the seed commit:
//  - kd_stream: one shared-mode (FAA-claiming) producer process carries
//    all tenants.
//  - tcp_stream: one producer per tenant with one request in flight,
//    Kafka's ordering setting without idempotence.
// Two more workloads send the same traffic from 4 tenants on 4 producers
// with 16 produces in flight each, which exposes a known failure of the
// seed commit (README, known baseline failures):
//  - kd_stream_shared4: a shared producer is left behind at a head-file
//    rotation and its later produces fail.
//  - tcp_stream_pipelined: the broker's API workers reorder the pipelined
//    requests of one connection.
#include <cmath>

#include "direct/rdma_consumer.h"
#include "direct/rdma_producer.h"
#include "workload.h"
#include "kafka/consumer.h"
#include "kafka/producer.h"
#include "sim/awaitable.h"
#include "sim/semaphore.h"

namespace kafkadirect {
namespace kdbench {
namespace {

using kafka::TopicPartitionId;

constexpr double kOfferedRate = 80000;  // records/s over all tenants
constexpr size_t kRecordSize = 1024;
constexpr int kRf = 2;
/// Measured phase at length 1, per transport, sized for ~10 s of host time.
/// KafkaDirect crosses six 64 MiB head-file rotations in it.
constexpr TimeNs kKdRun = Seconds(5);
constexpr TimeNs kTcpRun = Seconds(10);
constexpr TimeNs kDrainLimit = Seconds(1);
/// Tail latency objective for the capacity probes.
constexpr TimeNs kSlo = Millis(2);
/// Long enough for 20k records at the nominal rate: at least ten samples
/// beyond p99.9 from half the nominal rate up.
constexpr TimeNs kProbeRun = Millis(250);
constexpr int kProbes = 6;
/// TCP consumers long-poll like Kafka's fetch.max.wait.
constexpr TimeNs kFetchMaxWait = Millis(100);

enum class Transport { kRdma, kTcp };

/// One stream workload: its transport, and how its tenants share producer
/// clients (tenant t sends through client t % clients, which keeps up to
/// `window` produces in flight).
struct StreamSpec {
  Transport transport;
  uint32_t tenants;
  int clients;
  int window;
};

constexpr StreamSpec kKdStream{Transport::kRdma, 256, 1, 64};
constexpr StreamSpec kTcpStream{Transport::kTcp, 256, 256, 1};
constexpr StreamSpec kKdStreamShared4{Transport::kRdma, 4, 4, 16};
constexpr StreamSpec kTcpStreamPipelined{Transport::kTcp, 4, 4, 16};

/// One deployment with its clients. The cluster is declared first so the
/// clients are destroyed before it.
struct StreamDeployment {
  std::unique_ptr<harness::TestCluster> cluster;
  TopicPartitionId tp{"stream", 0};
  std::vector<std::unique_ptr<kd::RdmaProducer>> rdma;
  std::vector<std::unique_ptr<kafka::TcpProducer>> tcp;
  std::unique_ptr<kd::RdmaConsumer> rdma_consumer;
  std::unique_ptr<kafka::TcpConsumer> tcp_consumer;
};

sim::Co<void> ConnectClients(StreamDeployment* d, const StreamSpec& spec,
                             std::map<std::string, Histogram>* calls,
                             bool* done) {
  harness::TestCluster& c = *d->cluster;
  sim::Simulator& s = c.sim();
  for (int i = 0; i < spec.clients; i++) {
    net::NodeId node = c.AddClientNode("producer-" + std::to_string(i));
    TimeNs t0 = s.Now();
    uint64_t producer_id = static_cast<uint64_t>(i) + 1;
    if (spec.transport == Transport::kRdma) {
      d->rdma.push_back(std::make_unique<kd::RdmaProducer>(
          s, c.fabric(), c.tcp(), node,
          kd::RdmaProducerConfig{.exclusive = false,
                                 .max_inflight = spec.window,
                                 .producer_id = producer_id}));
      KD_CHECK_OK(co_await d->rdma.back()->Connect(c.Leader(d->tp), d->tp));
      (*calls)["direct.connect"].Add(s.Now() - t0);
    } else {
      d->tcp.push_back(std::make_unique<kafka::TcpProducer>(
          s, c.tcp(), node,
          kafka::ProducerConfig{.acks = -1,
                                .producer_id = producer_id,
                                .max_inflight = spec.window}));
      KD_CHECK_OK(co_await d->tcp.back()->Connect(c.Leader(d->tp)->node()));
      (*calls)["kafka.connect"].Add(s.Now() - t0);
    }
  }
  net::NodeId node = c.AddClientNode("consumer");
  TimeNs t0 = s.Now();
  if (spec.transport == Transport::kRdma) {
    d->rdma_consumer =
        std::make_unique<kd::RdmaConsumer>(s, c.fabric(), c.tcp(), node);
    KD_CHECK_OK(co_await d->rdma_consumer->Connect(c.Leader(d->tp)));
    KD_CHECK_OK(co_await d->rdma_consumer->Subscribe(d->tp, 0));
    (*calls)["direct.connect"].Add(s.Now() - t0);
  } else {
    d->tcp_consumer = std::make_unique<kafka::TcpConsumer>(s, c.tcp(), node);
    KD_CHECK_OK(co_await d->tcp_consumer->Connect(c.Leader(d->tp)->node()));
    (*calls)["kafka.connect"].Add(s.Now() - t0);
  }
  *done = true;
}

/// Builds a deployment and connects every client; returns the host
/// seconds that took.
double SetUp(const Options& opt, const StreamSpec& spec, StreamDeployment* d,
             std::map<std::string, Histogram>* calls) {
  double h0 = HostSeconds();
  harness::DeploymentConfig cfg = Deployment(opt, kRf);
  bool rdma = spec.transport == Transport::kRdma;
  cfg.broker.rdma_produce = rdma;
  cfg.broker.rdma_replicate = rdma;
  cfg.broker.rdma_consume = rdma;
  d->cluster = std::make_unique<harness::TestCluster>(cfg);
  KD_CHECK_OK(d->cluster->CreateTopic(d->tp.topic, 1, kRf));
  bool done = false;
  sim::Spawn(d->cluster->sim(), ConnectClients(d, spec, calls, &done));
  d->cluster->RunToFlag(&done);
  return HostSeconds() - h0;
}

/// Shared state of one run's traffic.
struct Traffic {
  Traffic(sim::Simulator& s, const StreamSpec& sp, uint64_t seed)
      : sim(s), spec(sp), filler(seed), oracle(sp.tenants) {
    for (int i = 0; i < spec.clients; i++) {
      clients.emplace_back();
      clients.back().ready = std::make_unique<sim::Semaphore>(s, 0);
    }
    record_span.resize(spec.tenants);
    queue_span.resize(spec.tenants);
  }

  struct Client {
    std::deque<Stamp> queue;  // due but not yet handed to the producer
    std::unique_ptr<sim::Semaphore> ready;
    int generators_left = 0;
  };

  sim::Simulator& sim;
  const StreamSpec& spec;
  Filler filler;
  Oracle oracle;
  std::vector<Client> clients;
  // Traced runs: "client.record" / "client.queue" span ids by tenant, seq.
  std::vector<std::vector<uint64_t>> record_span;
  std::vector<std::vector<uint64_t>> queue_span;
  Result* r = nullptr;
  ClientSpans* spans = nullptr;
  obs::TrackId record_track = 0;   // client.record: due -> delivered
  obs::TrackId produce_track = 0;  // client.queue, client.produce
  obs::TrackId poll_track = 0;
  uint64_t generated = 0;
  int senders_alive = 0;
  bool consumer_alive = false;
  bool stop_consumer = false;
  bool drop_queued = false;  // probe teardown: skip records not yet sent
  uint64_t polls = 0;
  uint64_t useful_polls = 0;
};

sim::Co<void> Generate(Traffic* tr, uint32_t t, double rate, TimeNs start,
                       TimeNs end, uint64_t seed) {
  Random rng(seed * 0x100000001B3ull + t);
  Traffic::Client& cl = tr->clients[t % tr->clients.size()];
  uint64_t seq = 0;
  double at = static_cast<double>(start);
  while (true) {
    at += -std::log(1.0 - rng.NextDouble()) * 1e9 / rate;
    TimeNs due = static_cast<TimeNs>(at);
    if (due >= end) break;
    if (due > tr->sim.Now()) co_await sim::Delay(tr->sim, due - tr->sim.Now());
    tr->r->max_lateness_ns =
        std::max(tr->r->max_lateness_ns, tr->sim.Now() - due);
    Stamp s{t, seq++, due};
    if (tr->spans->on()) {
      tr->record_span[t].push_back(
          tr->spans->Begin(tr->record_track, "client.record", t, s.seq));
      tr->queue_span[t].push_back(
          tr->spans->Begin(tr->produce_track, "client.queue", t, s.seq));
    }
    cl.queue.push_back(s);
    tr->oracle.Sent(t);
    tr->generated++;
    cl.ready->Release();
  }
  // After the client's last generator, one wake-up per sender: a sender
  // that finds the queue empty exits.
  if (--cl.generators_left == 0) cl.ready->Release(tr->spec.window);
}

sim::Co<void> Send(Traffic* tr, StreamDeployment* d, int client) {
  Traffic::Client& cl = tr->clients[client];
  Result* r = tr->r;
  while (true) {
    co_await cl.ready->Acquire();
    if (cl.queue.empty()) break;
    Stamp s = cl.queue.front();
    cl.queue.pop_front();
    if (tr->drop_queued) continue;
    std::string value = tr->filler.Make(s, kRecordSize);
    uint64_t span = 0;
    if (tr->spans->on()) {
      tr->spans->End(tr->produce_track, "client.queue",
                     tr->queue_span[s.tenant][s.seq]);
      span = tr->spans->Begin(tr->produce_track, "client.produce", s.tenant,
                              s.seq);
    }
    TimeNs t0 = tr->sim.Now();
    bool ok = false;
    if (tr->spec.transport == Transport::kRdma) {
      auto off =
          co_await d->rdma[client]->Produce(Slice("k", 1), Slice(value));
      ok = off.ok();
      r->calls["direct.produce_call"].Add(tr->sim.Now() - t0);
    } else {
      auto off = co_await d->tcp[client]->Produce(d->tp, Slice("k", 1),
                                                  Slice(value));
      ok = off.ok();
      r->calls["kafka.produce_call"].Add(tr->sim.Now() - t0);
    }
    tr->spans->End(tr->produce_track, "client.produce", span);
    if (ok) {
      r->ack_ns.Add(tr->sim.Now() - s.due_ns);
    } else {
      r->produce_errors++;
      tr->oracle.Failed(s.tenant, s.seq);
    }
  }
  tr->senders_alive--;
}

void Deliver(Traffic* tr, const std::string& value) {
  Stamp s;
  if (RecordDelivery(tr->oracle, value, tr->sim.Now(), tr->r, &s) &&
      tr->spans->on()) {
    tr->spans->End(tr->record_track, "client.record",
                   tr->record_span[s.tenant][s.seq]);
  }
}

sim::Co<void> Consume(Traffic* tr, StreamDeployment* d) {
  tr->consumer_alive = true;
  const bool rdma = tr->spec.transport == Transport::kRdma;
  while (!tr->stop_consumer) {
    TimeNs t0 = tr->sim.Now();
    tr->spans->Enter(tr->poll_track, "client.poll");
    std::vector<kafka::OwnedRecord> records;
    if (rdma) {
      auto polled = co_await d->rdma_consumer->Poll(d->tp);
      KD_CHECK(polled.ok()) << polled.status().ToString();
      records = std::move(polled).value();
    } else {
      auto polled =
          co_await d->tcp_consumer->Poll(d->tp, 1 << 20, kFetchMaxWait);
      KD_CHECK(polled.ok()) << polled.status().ToString();
      records = std::move(polled).value();
    }
    tr->spans->Exit(tr->poll_track);
    tr->r->calls[rdma ? "direct.poll" : "kafka.poll"].Add(tr->sim.Now() - t0);
    tr->polls++;
    if (!records.empty()) tr->useful_polls++;
    for (const kafka::OwnedRecord& rec : records) Deliver(tr, rec.value);
  }
  tr->consumer_alive = false;
}

/// Starts generators, senders and the consumer for [start, end) at
/// `factor` times the offered rate.
void StartTraffic(Traffic* tr, StreamDeployment* d, double factor,
                  TimeNs start, TimeNs end, uint64_t seed) {
  sim::Simulator& s = d->cluster->sim();
  const uint32_t tenants = tr->spec.tenants;
  for (uint32_t t = 0; t < tenants; t++) {
    tr->clients[t % tr->clients.size()].generators_left++;
  }
  for (uint32_t t = 0; t < tenants; t++) {
    sim::Spawn(s, Generate(tr, t, kOfferedRate * factor / tenants, start,
                           end, seed));
  }
  for (size_t c = 0; c < tr->clients.size(); c++) {
    for (int w = 0; w < tr->spec.window; w++) {
      tr->senders_alive++;
      sim::Spawn(s, Send(tr, d, static_cast<int>(c)));
    }
  }
  sim::Spawn(s, Consume(tr, d));
}

/// Stops the consumer and runs until every kdbench coroutine has returned,
/// so no client is destroyed under a suspended call.
void StopTraffic(Traffic* tr, StreamDeployment* d) {
  sim::ShardedSimulator& e = d->cluster->engine();
  e.RunUntilDone([tr] { return tr->senders_alive == 0; },
                 e.Now() + Seconds(60));
  KD_CHECK(tr->senders_alive == 0) << "produce calls never returned";
  tr->stop_consumer = true;
  e.RunUntilDone([tr] { return !tr->consumer_alive; }, e.Now() + Seconds(60));
  KD_CHECK(!tr->consumer_alive) << "consumer never returned";
}

/// One capacity probe: a fresh deployment offered `factor` x the nominal
/// rate for kProbeRun. Passes when delivery p99.9 <= kSlo, nothing failed,
/// and the backlog at the end is at most rate x kSlo.
bool Probe(const Options& opt, const StreamSpec& spec, double factor,
           uint64_t seed) {
  Options probe_opt = opt;
  probe_opt.trace_dir.clear();
  StreamDeployment d;
  std::map<std::string, Histogram> calls;
  SetUp(probe_opt, spec, &d, &calls);
  Result r;
  ClientSpans no_spans;
  Traffic tr(d.cluster->sim(), spec, seed);
  tr.r = &r;
  tr.spans = &no_spans;
  TimeNs start = d.cluster->engine().Now();
  TimeNs end = start + kProbeRun;
  StartTraffic(&tr, &d, factor, start, end, seed);
  d.cluster->engine().RunUntil(end);
  uint64_t failed = r.produce_errors + tr.oracle.corrupted() +
                    tr.oracle.duplicated() + tr.oracle.reordered();
  double backlog = static_cast<double>(tr.generated - tr.oracle.delivered());
  double max_backlog = kOfferedRate * factor * static_cast<double>(kSlo) / 1e9;
  bool pass = failed == 0 && r.delivery_ns.Percentile(99.9) <= kSlo &&
              backlog <= max_backlog;
  tr.drop_queued = true;
  StopTraffic(&tr, &d);
  return pass;
}

void RunStream(const Options& opt, const StreamSpec& spec, Result* r,
               ClientSpans* spans) {
  std::unique_ptr<StreamDeployment> dp =
      BuildDeployment<StreamDeployment>(r, [&](StreamDeployment* d) {
        return SetUp(opt, spec, d, &r->calls);
      });
  StreamDeployment& d = *dp;
  harness::TestCluster& c = *d.cluster;
  obs::Observability& ob = c.fabric().obs();
  if (opt.traced()) spans->tracer = &ob.tracer;
  Traffic tr(c.sim(), spec, opt.seed);
  tr.r = r;
  tr.spans = spans;
  if (spans->on()) {
    tr.record_track = ob.tracer.DefineTrack("client", "records");
    tr.produce_track = ob.tracer.DefineTrack("client", "producers");
    tr.poll_track = ob.tracer.DefineTrack("client", "consumer");
  }

  const bool rdma = spec.transport == Transport::kRdma;
  const TimeNs run = static_cast<TimeNs>(
      static_cast<double>(rdma ? kKdRun : kTcpRun) * opt.length);
  TimeNs start = c.engine().Now();
  CounterSnapshot before = Snapshot(ob.metrics);
  uint64_t events0 = c.engine().events_processed();
  StartTraffic(&tr, &d, 1.0, start, start + run, opt.seed);
  MeasureSlices(c, start, run, [&tr] { return tr.oracle.delivered(); }, r);
  double h0 = HostSeconds();
  c.engine().RunUntilDone(
      [&] {
        return tr.senders_alive == 0 &&
               tr.oracle.delivered() + r->produce_errors >= tr.generated;
      },
      c.engine().Now() + kDrainLimit);
  r->measured_host_s += HostSeconds() - h0;
  r->measured_events = c.engine().events_processed() - events0;
  r->peak_rss_mib = PeakRssMib();
  StopTraffic(&tr, &d);

  r->attempted = tr.generated;
  r->record_bytes = kRecordSize;
  TakeVerdicts(tr.oracle, r);
  r->measured_virtual_ns = r->last_delivery_ns - start;
  r->counters = Diff(Snapshot(ob.metrics), before);
  r->layers.push_back({rdma ? "direct.poll_useful_frac"
                            : "kafka.poll_useful_frac",
                       tr.polls == 0 ? 0
                                     : static_cast<double>(tr.useful_polls) /
                                           static_cast<double>(tr.polls),
                       "ratio"});
  if (rdma) {
    uint64_t rotations = 0;
    for (const auto& p : d.rdma) rotations += p->rotations();
    r->layers.push_back(
        {"direct.rotations", static_cast<double>(rotations), "count"});
    r->layers.push_back(
        {"direct.file_switches",
         static_cast<double>(d.rdma_consumer->file_switches()), "count"});
    r->layers.push_back({"direct.produce_errors",
                         static_cast<double>(r->produce_errors), "count"});
  }
  CollectDeploymentLayers(c, r);
  if (opt.traced()) {
    KD_CHECK(WriteTraceOutputs(ob.tracer, *spans, opt, r))
        << "cannot write trace outputs to " << opt.trace_dir;
    return;  // capacity comes from the untraced run
  }
  dp.reset();

  // Capacity: bisection on the offered rate. The measured phase already
  // tells whether the nominal rate meets the objective; the search covers
  // [1x, 3x] when it does and [0, 1x] when it does not.
  bool nominal_ok =
      r->failed() == 0 && r->delivery_ns.Percentile(99.9) <= kSlo;
  double lo = nominal_ok ? 1.0 : 0.0;
  double hi = nominal_ok ? 3.0 : 1.0;
  for (int i = 0; i < kProbes; i++) {
    double mid = (lo + hi) / 2;
    if (Probe(opt, spec, mid, opt.seed * 31 + static_cast<uint64_t>(i))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  r->sustained_krec_s = lo * kOfferedRate / 1000.0;
}

}  // namespace

void RunKdStream(const Options& opt, Result* r, ClientSpans* spans) {
  RunStream(opt, kKdStream, r, spans);
}

void RunTcpStream(const Options& opt, Result* r, ClientSpans* spans) {
  RunStream(opt, kTcpStream, r, spans);
}

void RunKdStreamShared4(const Options& opt, Result* r, ClientSpans* spans) {
  RunStream(opt, kKdStreamShared4, r, spans);
}

void RunTcpStreamPipelined(const Options& opt, Result* r, ClientSpans* spans) {
  RunStream(opt, kTcpStreamPipelined, r, spans);
}

}  // namespace kdbench
}  // namespace kafkadirect
