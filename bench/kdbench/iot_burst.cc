// iot_burst: the §5.4 streaming scenario in the shape of Fig. 21's
// KafkaDirect column (burst pattern, 2x replication).
//
// stream::RunSensor publishes a 400 events/s base load plus a 2000-event
// burst every 10 s, alternating between the two partitions of a topic
// (rf=2) through one exclusive RdmaProducer per partition. Each publish
// waits for one of kWindow in-flight slots of its partition, so a burst
// leaves the sensor as fast as the pipeline acknowledges it. An
// EventEngine consumer polls both partitions over RDMA, backs off 250 us
// when a round finds nothing, and commits its offset over TCP every
// 100 ms. The workload is mostly idle and bursty: host time goes to idle
// polls and timers, latency to burst queueing.
//
// Every value of a run is padded with trailing spaces (still valid JSON) to
// one size the seed picks from [kMinValueBytes, kMaxValueBytes], and the
// engine starts at a seeded phase of its backoff period: the seed changes
// the input, not only the JSON content. One size per run because
// RdmaProducer assigns a record's file position after a copy delay that
// grows with its size, so concurrent Produce calls of different sizes can
// overtake each other; equal sizes keep them in call order.
// iot_burst_unpadded sends the JSON as it is, which exposes that known
// failure of the seed commit (README, known baseline failures).
#include "direct/rdma_consumer.h"
#include "direct/rdma_producer.h"
#include "workload.h"
#include "kafka/consumer.h"
#include "sim/awaitable.h"
#include "sim/semaphore.h"
#include "stream/streaming.h"

namespace kafkadirect {
namespace kdbench {
namespace {

using kafka::TopicPartitionId;

constexpr int kLanes = 2;  // topic partitions, one producer each
constexpr int kRf = 2;
constexpr int kWindow = 8;  // in-flight produces per partition
constexpr double kBaseRate = 400;
constexpr int kBurst = 2000;
constexpr TimeNs kBurstPeriod = Seconds(10);
/// Measured phase at length 1 (60 bursts), sized for ~10 s of host time.
constexpr TimeNs kNominalRun = Seconds(600);
constexpr TimeNs kIdleBackoff = Micros(250);
constexpr TimeNs kCommitPeriod = Millis(100);
constexpr TimeNs kDrainLimit = Seconds(2);
/// Events re-ingested after the run to time EventEngine::Ingest.
constexpr size_t kIngestSample = 4096;
constexpr size_t kMinValueBytes = 126;
constexpr size_t kMaxValueBytes = 130;

struct IotDeployment {
  std::unique_ptr<harness::TestCluster> cluster;
  TopicPartitionId tp[kLanes] = {{"iot", 0}, {"iot", 1}};
  std::unique_ptr<kd::RdmaProducer> producer[kLanes];
  std::unique_ptr<kd::RdmaConsumer> consumer[kLanes];
  std::unique_ptr<kafka::TcpConsumer> committer;
};

sim::Co<void> ConnectClients(IotDeployment* d,
                             std::map<std::string, Histogram>* calls,
                             bool* done) {
  harness::TestCluster& c = *d->cluster;
  sim::Simulator& s = c.sim();
  net::NodeId sensor = c.AddClientNode("sensor");
  net::NodeId engine = c.AddClientNode("engine");
  for (int lane = 0; lane < kLanes; lane++) {
    kd::KafkaDirectBroker* leader = c.Leader(d->tp[lane]);
    TimeNs t0 = s.Now();
    d->producer[lane] = std::make_unique<kd::RdmaProducer>(
        s, c.fabric(), c.tcp(), sensor,
        kd::RdmaProducerConfig{.max_inflight = kWindow});
    KD_CHECK_OK(co_await d->producer[lane]->Connect(leader, d->tp[lane]));
    (*calls)["direct.connect"].Add(s.Now() - t0);
    // One consumer per partition leader: metadata slots live per broker.
    t0 = s.Now();
    d->consumer[lane] =
        std::make_unique<kd::RdmaConsumer>(s, c.fabric(), c.tcp(), engine);
    KD_CHECK_OK(co_await d->consumer[lane]->Connect(leader));
    KD_CHECK_OK(co_await d->consumer[lane]->Subscribe(d->tp[lane], 0));
    (*calls)["direct.connect"].Add(s.Now() - t0);
  }
  d->committer = std::make_unique<kafka::TcpConsumer>(s, c.tcp(), engine);
  KD_CHECK_OK(co_await d->committer->Connect(c.Leader(d->tp[0])->node()));
  *done = true;
}

double SetUp(const Options& opt, IotDeployment* d,
             std::map<std::string, Histogram>* calls) {
  double h0 = HostSeconds();
  harness::DeploymentConfig cfg = Deployment(opt, kRf);
  cfg.broker.rdma_produce = true;
  cfg.broker.rdma_replicate = true;
  cfg.broker.rdma_consume = true;
  d->cluster = std::make_unique<harness::TestCluster>(cfg);
  KD_CHECK_OK(d->cluster->CreateTopic("iot", kLanes, kRf));
  bool done = false;
  sim::Spawn(d->cluster->sim(), ConnectClients(d, calls, &done));
  d->cluster->RunToFlag(&done);
  return HostSeconds() - h0;
}

struct Traffic {
  Traffic(sim::Simulator& s, uint64_t seed, bool pad)
      : sim(s),
        filler(seed),
        value_bytes(pad ? SeededValueBytes(seed, kMinValueBytes,
                                           kMaxValueBytes)
                        : 0) {
    for (auto& w : window) w = std::make_unique<sim::Semaphore>(s, kWindow);
  }

  sim::Simulator& sim;
  Filler filler;
  size_t value_bytes;  // every value's size; 0 leaves the JSON unpadded
  Oracle oracle{kLanes};
  std::unique_ptr<sim::Semaphore> window[kLanes];
  uint64_t next_seq[kLanes] = {0, 0};
  /// Sensor order: global index of (lane, seq), and each record's due and
  /// delivery time by global index (burst drain rates come from these).
  std::vector<uint64_t> global_of[kLanes];
  std::vector<TimeNs> due;
  std::vector<TimeNs> delivered_at;
  std::vector<uint64_t> record_span[kLanes];
  stream::EventEngine engine;
  Result* r = nullptr;
  ClientSpans* spans = nullptr;
  obs::TrackId record_track = 0;   // client.record: due -> delivered
  obs::TrackId produce_track = 0;  // client.queue, client.produce
  obs::TrackId poll_track = 0;
  bool sensor_done = false;
  int sends_alive = 0;
  bool engine_alive = false;
  bool stop_engine = false;
  uint64_t rounds = 0;
  uint64_t useful_rounds = 0;
  uint64_t idle_backoffs = 0;
  std::vector<std::string> sample_events;  // for stream.ingest_host_ns
};

sim::Co<void> Send(Traffic* tr, IotDeployment* d, int lane, Stamp s,
                   std::string value) {
  uint64_t span =
      tr->spans->Begin(tr->produce_track, "client.produce", s.tenant, s.seq);
  TimeNs t0 = tr->sim.Now();
  auto off =
      co_await d->producer[lane]->Produce(Slice("s", 1), Slice(value));
  tr->r->calls["direct.produce_call"].Add(tr->sim.Now() - t0);
  tr->spans->End(tr->produce_track, "client.produce", span);
  if (off.ok()) {
    tr->r->ack_ns.Add(tr->sim.Now() - s.due_ns);
  } else {
    tr->r->produce_errors++;
    tr->oracle.Failed(s.tenant, s.seq);
  }
  tr->window[lane]->Release();
  tr->sends_alive--;
}

sim::Co<void> Sensor(Traffic* tr, IotDeployment* d, TimeNs duration,
                     uint64_t seed) {
  stream::SensorConfig cfg;
  cfg.pattern = stream::PublishPattern::kPeriodicBurst;
  cfg.base_rate_per_sec = kBaseRate;
  cfg.burst_period_ns = kBurstPeriod;
  cfg.burst_size = kBurst;
  cfg.seed = seed;
  auto publish = [tr, d](int lane, std::string json) -> sim::Co<Status> {
    Stamp s{static_cast<uint32_t>(lane), tr->next_seq[lane]++,
            tr->sim.Now()};
    tr->global_of[lane].push_back(tr->due.size());
    tr->due.push_back(s.due_ns);
    tr->delivered_at.push_back(-1);
    tr->oracle.Sent(s.tenant);
    tr->r->attempted++;
    if (tr->spans->on()) {
      tr->record_span[lane].push_back(
          tr->spans->Begin(tr->record_track, "client.record", s.tenant, s.seq));
    }
    if (tr->value_bytes > 0) json.resize(tr->value_bytes - kStampBytes, ' ');
    std::string value = tr->filler.Make(s, 0, json);
    tr->r->record_bytes = value.size();
    uint64_t wait =
        tr->spans->Begin(tr->produce_track, "client.queue", s.tenant, s.seq);
    co_await tr->window[lane]->Acquire();
    tr->spans->End(tr->produce_track, "client.queue", wait);
    tr->sends_alive++;
    sim::Spawn(tr->sim, Send(tr, d, lane, s, std::move(value)));
    co_return Status::OK();
  };
  co_await stream::RunSensor(tr->sim, cfg, duration, publish);
  tr->sensor_done = true;
}

sim::Co<void> Engine(Traffic* tr, IotDeployment* d, TimeNs phase) {
  tr->engine_alive = true;
  co_await sim::Delay(tr->sim, phase);
  TimeNs next_commit = tr->sim.Now() + kCommitPeriod;
  int64_t committed = 0;
  while (!tr->stop_engine) {
    uint64_t got = 0;
    for (int lane = 0; lane < kLanes; lane++) {
      TimeNs t0 = tr->sim.Now();
      tr->spans->Enter(tr->poll_track, "client.poll");
      auto records = co_await d->consumer[lane]->Poll(d->tp[lane]);
      tr->spans->Exit(tr->poll_track);
      tr->r->calls["direct.poll"].Add(tr->sim.Now() - t0);
      KD_CHECK(records.ok()) << records.status().ToString();
      for (const kafka::OwnedRecord& rec : records.value()) {
        Stamp s;
        if (RecordDelivery(tr->oracle, rec.value, tr->sim.Now(), tr->r, &s)) {
          tr->delivered_at[tr->global_of[s.tenant][s.seq]] = tr->sim.Now();
          if (tr->spans->on()) {
            tr->spans->End(tr->record_track, "client.record",
                           tr->record_span[s.tenant][s.seq]);
          }
          std::string json = rec.value.substr(kStampBytes);
          KD_CHECK_OK(tr->engine.Ingest(json, tr->sim.Now()));
          if (tr->sample_events.size() < kIngestSample) {
            tr->sample_events.push_back(std::move(json));
          }
        }
        committed = rec.offset;
      }
      got += records.value().size();
    }
    tr->rounds++;
    if (got > 0) tr->useful_rounds++;
    if (tr->sim.Now() >= next_commit) {
      next_commit = tr->sim.Now() + kCommitPeriod;
      TimeNs t0 = tr->sim.Now();
      tr->spans->Enter(tr->poll_track, "client.commit");
      KD_CHECK_OK(co_await d->committer->CommitOffset(d->tp[0], "engine",
                                                      committed));
      tr->spans->Exit(tr->poll_track);
      tr->r->calls["stream.commit"].Add(tr->sim.Now() - t0);
    }
    if (got == 0) {
      tr->idle_backoffs++;
      co_await sim::Delay(tr->sim, kIdleBackoff);
    }
  }
  tr->engine_alive = false;
}

/// Host ns per EventEngine::Ingest call on the run's own events, timed
/// after the run (median of five passes) so the measured phase carries no
/// clock reads.
double IngestHostNs(const std::vector<std::string>& events) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; rep++) {
    stream::EventEngine engine;
    double h0 = HostSeconds();
    for (const std::string& e : events) KD_CHECK_OK(engine.Ingest(e, 0));
    reps.push_back((HostSeconds() - h0) * 1e9 /
                   static_cast<double>(std::max<size_t>(events.size(), 1)));
  }
  return Median(reps);
}

/// Median over bursts of records per second from a burst's first due time
/// to its last delivery: the rate the pipeline sustains while the sensor
/// is limited only by the in-flight window.
double BurstDrainKrecS(const Traffic& tr, TimeNs start) {
  std::vector<double> rates;
  size_t i = 0;
  for (TimeNs boundary = start + kBurstPeriod;; boundary += kBurstPeriod) {
    while (i < tr.due.size() && tr.due[i] < boundary) i++;
    // tr.due[i] is the base event that triggers the burst; the burst
    // follows it in sensor order.
    if (i + kBurst >= tr.due.size()) break;
    TimeNs last = 0;
    for (size_t k = i + 1; k <= i + kBurst; k++) {
      last = std::max(last, tr.delivered_at[k]);
    }
    TimeNs span = last - tr.due[i + 1];
    if (span > 0) rates.push_back(kBurst / (static_cast<double>(span) / 1e9));
    i += kBurst + 1;
  }
  return Median(rates) / 1000.0;
}

void RunIot(const Options& opt, bool pad, Result* r, ClientSpans* spans) {
  std::unique_ptr<IotDeployment> dp = BuildDeployment<IotDeployment>(
      r, [&](IotDeployment* d) { return SetUp(opt, d, &r->calls); });
  IotDeployment& d = *dp;
  harness::TestCluster& c = *d.cluster;
  obs::Observability& ob = c.fabric().obs();
  if (opt.traced()) spans->tracer = &ob.tracer;
  Traffic tr(c.sim(), opt.seed, pad);
  tr.r = r;
  tr.spans = spans;
  if (spans->on()) {
    tr.record_track = ob.tracer.DefineTrack("client", "records");
    tr.produce_track = ob.tracer.DefineTrack("client", "producers");
    tr.poll_track = ob.tracer.DefineTrack("client", "engine");
  }

  const TimeNs run =
      static_cast<TimeNs>(static_cast<double>(kNominalRun) * opt.length);
  TimeNs start = c.engine().Now();
  CounterSnapshot before = Snapshot(ob.metrics);
  uint64_t events0 = c.engine().events_processed();
  sim::Spawn(c.sim(), Sensor(&tr, &d, run, opt.seed));
  Random rng(opt.seed);
  sim::Spawn(c.sim(),
             Engine(&tr, &d, static_cast<TimeNs>(rng.Uniform(kIdleBackoff))));
  MeasureSlices(c, start, run, [&tr] { return tr.oracle.delivered(); }, r);
  double h0 = HostSeconds();
  c.engine().RunUntilDone(
      [&] {
        return tr.sensor_done && tr.sends_alive == 0 &&
               tr.oracle.delivered() + r->produce_errors >= r->attempted;
      },
      c.engine().Now() + kDrainLimit);
  r->measured_host_s += HostSeconds() - h0;
  r->measured_events = c.engine().events_processed() - events0;
  r->peak_rss_mib = PeakRssMib();
  c.engine().RunUntilDone(
      [&] { return tr.sensor_done && tr.sends_alive == 0; },
      c.engine().Now() + Seconds(60));
  KD_CHECK(tr.sensor_done && tr.sends_alive == 0) << "sensor never finished";
  tr.stop_engine = true;
  c.engine().RunUntilDone([&] { return !tr.engine_alive; },
                          c.engine().Now() + Seconds(60));
  KD_CHECK(!tr.engine_alive) << "engine never returned";

  TakeVerdicts(tr.oracle, r);
  r->measured_virtual_ns = r->last_delivery_ns - start;
  r->sustained_krec_s = BurstDrainKrecS(tr, start);
  r->counters = Diff(Snapshot(ob.metrics), before);
  uint64_t rotations = 0, switches = 0;
  for (int lane = 0; lane < kLanes; lane++) {
    rotations += d.producer[lane]->rotations();
    switches += d.consumer[lane]->file_switches();
  }
  double recs = static_cast<double>(std::max<uint64_t>(r->delivered, 1));
  r->layers = {
      {"direct.rotations", static_cast<double>(rotations), "count"},
      {"direct.file_switches", static_cast<double>(switches), "count"},
      {"direct.produce_errors", static_cast<double>(r->produce_errors),
       "count"},
      {"direct.poll_useful_frac",
       static_cast<double>(tr.useful_rounds) /
           static_cast<double>(std::max<uint64_t>(tr.rounds, 1)),
       "ratio"},
      {"stream.idle_backoffs_per_rec",
       static_cast<double>(tr.idle_backoffs) / recs, "count"},
      {"stream.ingest_host_ns", IngestHostNs(tr.sample_events), "ns"}};
  CollectDeploymentLayers(c, r);
  if (opt.traced()) {
    KD_CHECK(WriteTraceOutputs(ob.tracer, *spans, opt, r))
        << "cannot write trace outputs to " << opt.trace_dir;
  }
}

}  // namespace

void RunIotBurst(const Options& opt, Result* r, ClientSpans* spans) {
  RunIot(opt, /*pad=*/true, r, spans);
}

void RunIotBurstUnpadded(const Options& opt, Result* r, ClientSpans* spans) {
  RunIot(opt, /*pad=*/false, r, spans);
}

}  // namespace kdbench
}  // namespace kafkadirect
