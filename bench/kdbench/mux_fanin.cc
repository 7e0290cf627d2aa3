// mux_fanin: many small logical clients multiplexed over a few transport
// QPs (DESIGN.md §14), in the configuration of tbl_client_scaling's mux
// sweep: SRQ, connection cache, metadata arena and admission control on.
//
// Closed loop. kEndpoints MuxProducer endpoints each own one partition
// (rf=1) and a contiguous range of logical client ids. Each endpoint churns
// through its clients in open batches of kBatch streams: one bulk
// OpenStreams, then kInflight worker coroutines take clients in turn and
// produce kRecordsPerClient 64-byte records on the client's stream, one
// synchronous Produce at a time, then CloseStreams. Small records make the
// per-message cost dominate; the seed picks the run's value size around
// 64 B. One RdmaConsumer subscribed to every partition reads the records
// back, which is how the oracle sees them.
#include "bench/endpoint_map.h"
#include "direct/mux_producer.h"
#include "direct/rdma_consumer.h"
#include "workload.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace kdbench {
namespace {

using kafka::TopicPartitionId;

constexpr int kEndpoints = 16;
constexpr uint32_t kBatch = 1024;   // streams open per endpoint at a time
constexpr int kInflight = 8;        // produces in flight per endpoint
constexpr int kRecordsPerClient = 4;
constexpr size_t kMinValueBytes = 63;
constexpr size_t kMaxValueBytes = 65;
/// Logical clients at length 1, sized for ~10 s of host time.
constexpr double kNominalClients = 393216;
constexpr TimeNs kDrainLimit = Seconds(1);

struct MuxDeployment {
  std::unique_ptr<harness::TestCluster> cluster;
  std::string topic = "mux";
  std::unique_ptr<kd::MuxProducer> endpoint[kEndpoints];
  std::unique_ptr<kd::RdmaConsumer> consumer;
};

TopicPartitionId Partition(const MuxDeployment& d, int p) {
  return TopicPartitionId{d.topic, p};
}

sim::Co<void> ConnectClients(MuxDeployment* d,
                             std::map<std::string, Histogram>* calls,
                             bool* done) {
  harness::TestCluster& c = *d->cluster;
  sim::Simulator& s = c.sim();
  for (int e = 0; e < kEndpoints; e++) {
    TopicPartitionId tp = Partition(*d, e);
    TimeNs t0 = s.Now();
    d->endpoint[e] = std::make_unique<kd::MuxProducer>(
        s, c.fabric(), c.tcp(), c.AddClientNode("mux-ep"),
        kd::MuxProducerConfig{.max_inflight = kInflight});
    KD_CHECK_OK(co_await d->endpoint[e]->Connect(c.Leader(tp), tp));
    (*calls)["direct.connect"].Add(s.Now() - t0);
  }
  TimeNs t0 = s.Now();
  d->consumer = std::make_unique<kd::RdmaConsumer>(
      s, c.fabric(), c.tcp(), c.AddClientNode("consumer"));
  KD_CHECK_OK(co_await d->consumer->Connect(c.Leader(Partition(*d, 0))));
  for (int p = 0; p < kEndpoints; p++) {
    KD_CHECK_OK(co_await d->consumer->Subscribe(Partition(*d, p), 0));
  }
  (*calls)["direct.connect"].Add(s.Now() - t0);
  *done = true;
}

double SetUp(const Options& opt, MuxDeployment* d,
             std::map<std::string, Histogram>* calls) {
  double h0 = HostSeconds();
  harness::DeploymentConfig cfg = Deployment(opt, 1);
  cfg.broker.rdma_produce = true;
  cfg.broker.rdma_consume = true;
  cfg.broker.use_srq = true;
  cfg.broker.cq_poll_batch = 16;
  cfg.broker.qp_mux = true;
  cfg.broker.connection_cache = true;
  cfg.broker.connection_cache_capacity = 2 * kEndpoints;
  cfg.broker.metadata_arena = true;
  cfg.broker.metadata_arena_slots = 2 * kEndpoints * kBatch;
  cfg.broker.admission_control = true;
  cfg.broker.admission_max_streams = 2 * kEndpoints * kBatch;
  d->cluster = std::make_unique<harness::TestCluster>(cfg);
  KD_CHECK_OK(d->cluster->CreateTopic(d->topic, kEndpoints, 1));
  bool done = false;
  sim::Spawn(d->cluster->sim(), ConnectClients(d, calls, &done));
  d->cluster->RunToFlag(&done);
  return HostSeconds() - h0;
}

struct Traffic {
  Traffic(sim::Simulator& s, uint64_t seed, uint32_t streams)
      : sim(s),
        filler(seed),
        value_bytes(SeededValueBytes(seed, kMinValueBytes, kMaxValueBytes)),
        oracle(streams) {}

  sim::Simulator& sim;
  Filler filler;
  size_t value_bytes;
  Oracle oracle;
  Result* r = nullptr;
  ClientSpans* spans = nullptr;
  obs::TrackId record_track = 0;  // client.record: due -> delivered
  obs::TrackId track[kEndpoints] = {};  // per endpoint: produce, open
  obs::TrackId poll_track = 0;
  /// Traced runs: "client.record" span ids by stream, record index.
  std::unordered_map<uint64_t, uint64_t> record_span;
  int endpoints_alive = 0;
  bool consumer_alive = false;
  bool stop_consumer = false;
  uint64_t produced_ok = 0;
  uint64_t polls = 0;
  uint64_t useful_polls = 0;
};

/// The admitted clients of one open batch, handed out to the workers.
struct Batch {
  explicit Batch(sim::Simulator& s) : done(s) {}
  uint32_t next = 0;
  uint32_t end = 0;
  int workers = 0;
  sim::Event done;  // set when the last worker leaves
};

/// One worker: takes the next client of the open batch and produces its
/// records, until the batch is exhausted.
sim::Co<void> Worker(Traffic* tr, kd::MuxProducer* ep, int e, Batch* b) {
  while (b->next < b->end) {
    uint32_t stream = b->next++;
    for (int k = 0; k < kRecordsPerClient; k++) {
      Stamp s{stream, static_cast<uint64_t>(k), tr->sim.Now()};
      std::string value = tr->filler.Make(s, tr->value_bytes);
      tr->oracle.Sent(stream);
      tr->r->attempted++;
      uint64_t span = 0;
      if (tr->spans->on()) {
        tr->record_span[uint64_t{stream} << 8 | static_cast<uint64_t>(k)] =
            tr->spans->Begin(tr->record_track, "client.record", stream, s.seq);
        span = tr->spans->Begin(tr->track[e], "client.produce", stream,
                                s.seq);
      }
      auto off = co_await ep->Produce(stream, Slice("k", 1), Slice(value));
      tr->spans->End(tr->track[e], "client.produce", span);
      TimeNs took = tr->sim.Now() - s.due_ns;
      tr->r->calls["direct.produce_call"].Add(took);
      if (off.ok()) {
        tr->r->ack_ns.Add(took);
        tr->produced_ok++;
      } else {
        tr->r->produce_errors++;
        tr->oracle.Failed(stream, s.seq);
      }
    }
  }
  if (--b->workers == 0) b->done.Set();
}

sim::Co<void> Endpoint(Traffic* tr, MuxDeployment* d, int e,
                       uint32_t clients) {
  kd::MuxProducer* ep = d->endpoint[e].get();
  bench::EndpointRoute route =
      bench::RouteForEndpoint(d->topic, e, kEndpoints, clients);
  for (uint32_t off = 0; off < clients; off += kBatch) {
    uint32_t n = std::min(kBatch, clients - off);
    uint32_t base = route.stream_base + off;
    TimeNs t0 = tr->sim.Now();
    tr->spans->Enter(tr->track[e], "client.open");
    auto open = co_await ep->OpenStreams(base, n);
    tr->spans->Exit(tr->track[e]);
    tr->r->calls["mux.open"].Add(tr->sim.Now() - t0);
    KD_CHECK_OK(open.status());
    uint32_t admitted = open.value().admitted;
    // A refused stream's records count as attempted and failed.
    for (uint32_t s = base + admitted; s < base + n; s++) {
      for (int k = 0; k < kRecordsPerClient; k++) {
        tr->oracle.Sent(s);
        tr->oracle.Failed(s, k);
      }
    }
    tr->r->attempted += uint64_t{n - admitted} * kRecordsPerClient;
    tr->r->admission_refusals += uint64_t{n - admitted} * kRecordsPerClient;
    Batch batch(tr->sim);
    batch.next = base;
    batch.end = base + admitted;
    batch.workers = kInflight;
    for (int w = 0; w < kInflight; w++) {
      sim::Spawn(tr->sim, Worker(tr, ep, e, &batch));
    }
    co_await batch.done.Wait();
    KD_CHECK_OK(co_await ep->Flush());
    t0 = tr->sim.Now();
    KD_CHECK_OK(co_await ep->CloseStreams(base, n));
    tr->r->calls["mux.close"].Add(tr->sim.Now() - t0);
  }
  tr->endpoints_alive--;
}

sim::Co<void> Consume(Traffic* tr, MuxDeployment* d) {
  tr->consumer_alive = true;
  while (!tr->stop_consumer) {
    for (int p = 0; p < kEndpoints && !tr->stop_consumer; p++) {
      TimeNs t0 = tr->sim.Now();
      tr->spans->Enter(tr->poll_track, "client.poll");
      auto records = co_await d->consumer->Poll(Partition(*d, p));
      tr->spans->Exit(tr->poll_track);
      tr->r->calls["direct.poll"].Add(tr->sim.Now() - t0);
      KD_CHECK(records.ok()) << records.status().ToString();
      tr->polls++;
      if (!records.value().empty()) tr->useful_polls++;
      for (const kafka::OwnedRecord& rec : records.value()) {
        Stamp s;
        if (RecordDelivery(tr->oracle, rec.value, tr->sim.Now(), tr->r, &s) &&
            tr->spans->on()) {
          tr->spans->End(tr->record_track, "client.record",
                         tr->record_span[uint64_t{s.tenant} << 8 | s.seq]);
        }
      }
    }
  }
  tr->consumer_alive = false;
}

}  // namespace

void RunMuxFanin(const Options& opt, Result* r, ClientSpans* spans) {
  std::unique_ptr<MuxDeployment> dp = BuildDeployment<MuxDeployment>(
      r, [&](MuxDeployment* d) { return SetUp(opt, d, &r->calls); });
  MuxDeployment& d = *dp;
  harness::TestCluster& c = *d.cluster;
  obs::Observability& ob = c.fabric().obs();
  if (opt.traced()) spans->tracer = &ob.tracer;
  const uint32_t per_endpoint = std::max<uint32_t>(
      1, static_cast<uint32_t>(kNominalClients * opt.length / kEndpoints));
  Traffic tr(c.sim(), opt.seed, 1 + kEndpoints * per_endpoint);
  tr.r = r;
  tr.spans = spans;
  if (spans->on()) {
    for (int e = 0; e < kEndpoints; e++) {
      tr.track[e] =
          ob.tracer.DefineTrack("client", "endpoint-" + std::to_string(e));
    }
    tr.record_track = ob.tracer.DefineTrack("client", "records");
    tr.poll_track = ob.tracer.DefineTrack("client", "consumer");
  }

  TimeNs start = c.engine().Now();
  CounterSnapshot before = Snapshot(ob.metrics);
  uint64_t events0 = c.engine().events_processed();
  const uint64_t total =
      uint64_t{kEndpoints} * per_endpoint * kRecordsPerClient;
  for (int e = 0; e < kEndpoints; e++) {
    tr.endpoints_alive++;
    sim::Spawn(c.sim(), Endpoint(&tr, &d, e, per_endpoint));
  }
  sim::Spawn(c.sim(), Consume(&tr, &d));
  // Closed loop: the host-time slices are shares of the records, not of a
  // virtual duration.
  MeasureProgress(
      c, total, [&tr] { return tr.oracle.delivered(); },
      [&tr] { return tr.endpoints_alive == 0; }, r);
  double h0 = HostSeconds();
  c.engine().RunUntilDone(
      [&] {
        return tr.endpoints_alive == 0 &&
               tr.oracle.delivered() >= tr.produced_ok;
      },
      c.engine().Now() + kDrainLimit);
  r->measured_host_s += HostSeconds() - h0;
  r->measured_events = c.engine().events_processed() - events0;
  r->peak_rss_mib = PeakRssMib();
  c.engine().RunUntilDone([&] { return tr.endpoints_alive == 0; },
                          c.engine().Now() + Seconds(60));
  KD_CHECK(tr.endpoints_alive == 0) << "endpoints never finished";
  tr.stop_consumer = true;
  c.engine().RunUntilDone([&] { return !tr.consumer_alive; },
                          c.engine().Now() + Seconds(60));
  KD_CHECK(!tr.consumer_alive) << "consumer never returned";

  r->record_bytes = tr.value_bytes;
  TakeVerdicts(tr.oracle, r);
  r->measured_virtual_ns = r->last_delivery_ns - start;
  r->sustained_krec_s = static_cast<double>(r->delivered) /
                        (static_cast<double>(r->measured_virtual_ns) / 1e9) /
                        1000.0;
  r->counters = Diff(Snapshot(ob.metrics), before);
  uint64_t resynced = 0;
  for (const auto& ep : d.endpoint) resynced += ep->resynced_records();
  r->layers = {
      {"mux.resynced_records", static_cast<double>(resynced), "count"},
      {"direct.produce_errors", static_cast<double>(r->produce_errors),
       "count"},
      {"direct.poll_useful_frac",
       static_cast<double>(tr.useful_polls) /
           static_cast<double>(std::max<uint64_t>(tr.polls, 1)),
       "ratio"},
      {"direct.file_switches",
       static_cast<double>(d.consumer->file_switches()), "count"}};
  CollectDeploymentLayers(c, r);
  if (opt.traced()) {
    KD_CHECK(WriteTraceOutputs(ob.tracer, *spans, opt, r))
        << "cannot write trace outputs to " << opt.trace_dir;
  }
}

}  // namespace kdbench
}  // namespace kafkadirect
