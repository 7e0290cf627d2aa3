// Shared pieces of the kdbench workloads: run options, the per-run result
// every workload fills in, and the timing/counter helpers the workloads
// use to measure each layer from outside its public calls.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "harness/harness.h"
#include "obs/metrics.h"
#include "oracle.h"

namespace kafkadirect {
namespace kdbench {

using sim::TimeNs;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Multiplies every workload's nominal virtual run length (1.0 sizes the
  /// measured phase for roughly 10 s of host time on a 4-core x86 host).
  double length = 1.0;
  /// Non-empty: record spans (the deployment's own plus kdbench's
  /// client.* spans) and write the trace outputs into this directory.
  std::string trace_dir;

  bool traced() const { return !trace_dir.empty(); }
};

/// One named number with its unit; `samples` is the sample count behind a
/// percentile (0 for everything else).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// Host time: CPU seconds of the calling thread, which is the only thread
/// the simulation runs on. On a shared host this leaves out the time the
/// process waits for a core, which wall time would count.
inline double HostSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// A run's record value size, drawn from [lo, hi] by the seed. Workloads
/// whose load is otherwise seed-independent (a closed loop, a fixed-rate
/// sensor) take their value size from here, so each seed is a different
/// input and no virtual-time median is the same for every seed.
inline size_t SeededValueBytes(uint64_t seed, size_t lo, size_t hi) {
  Random rng(seed ^ 0x5eedb17e5ull);
  return lo + rng.Uniform(hi - lo + 1);
}

/// Every counter of a registry by name; a phase's counts are the
/// difference of two snapshots.
using CounterSnapshot = std::map<std::string, uint64_t>;

CounterSnapshot Snapshot(const obs::MetricsRegistry& m);
CounterSnapshot Diff(const CounterSnapshot& after,
                     const CounterSnapshot& before);

/// Client-side spans kdbench records into the deployment's own
/// SpanTracer. Async span ids are assigned by the tracer; `record_of` maps
/// each one back to the record (tenant, seq) it belongs to, and the trace
/// writer relabels them so one record's spans share an id.
struct ClientSpans {
  obs::SpanTracer* tracer = nullptr;  // null when untraced
  std::unordered_map<uint64_t, std::pair<uint32_t, uint64_t>> record_of;

  bool on() const { return tracer != nullptr; }
  uint64_t Begin(obs::TrackId track, const char* name, uint32_t tenant,
                 uint64_t seq) {
    if (tracer == nullptr) return 0;
    uint64_t id = tracer->AsyncBegin(track, name);
    record_of[id] = {tenant, seq};
    return id;
  }
  void End(obs::TrackId track, const char* name, uint64_t id) {
    if (tracer != nullptr) tracer->AsyncEnd(track, name, id);
  }
  /// Synchronous span around one call on `track` (polls, opens, commits).
  void Enter(obs::TrackId track, const char* name) {
    if (tracer != nullptr) tracer->Begin(track, name);
  }
  void Exit(obs::TrackId track) {
    if (tracer != nullptr) tracer->End(track);
  }
};

/// Everything one run of a workload measures.
struct Result {
  // --- virtual time ---
  Histogram ack_ns;       // due -> Produce call returned (successes only)
  Histogram delivery_ns;  // due -> consumer handed the record back
  uint64_t attempted = 0;
  uint64_t produce_errors = 0;
  uint64_t admission_refusals = 0;
  uint64_t lost = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t corrupted = 0;
  uint64_t delivered = 0;
  uint64_t delivered_payload_bytes = 0;
  /// Latest a generated record was handed over after its due time; must
  /// stay 0 or the open loop silently became closed.
  TimeNs max_lateness_ns = 0;
  TimeNs last_delivery_ns = 0;
  TimeNs measured_virtual_ns = 0;
  double sustained_krec_s = 0;
  size_t record_bytes = 0;  // value size of the workload's records

  // --- host time ---
  std::vector<double> setup_s;        // one sample per deployment built
  std::vector<double> slice_krec_s;  // delivered per host second, by slice
  double measured_host_s = 0;
  uint64_t measured_events = 0;
  double peak_rss_mib = 0;

  // --- per layer ---
  /// Virtual-time call timings around the public client APIs, keyed by
  /// the layer metric stem (e.g. "direct.produce_call").
  std::map<std::string, Histogram> calls;
  CounterSnapshot counters;    // measured-phase deltas
  std::vector<Metric> layers;  // layer metrics the workload computed itself
  std::vector<Metric> span_layers;  // traced runs: derived from the spans

  uint64_t failed() const {
    return produce_errors + admission_refusals + lost + duplicated +
           reordered + corrupted;
  }
};

/// ru_maxrss in MiB.
double PeakRssMib();

/// Builds a workload's deployment five times, recording each build's host
/// seconds in `r->setup_s` (setup_s is their median); the last build is
/// returned and carries the traffic. `set_up(D*)` builds one deployment,
/// connects its clients and returns the host seconds that took.
template <typename D, typename SetUpFn>
std::unique_ptr<D> BuildDeployment(Result* r, SetUpFn set_up) {
  constexpr int kSetups = 5;
  std::unique_ptr<D> d;
  for (int i = 0; i < kSetups; i++) {
    d = std::make_unique<D>();
    r->calls.clear();
    r->setup_s.push_back(set_up(d.get()));
  }
  return d;
}

/// Hands one consumed value to the oracle. A first, intact delivery is
/// recorded in `r` (latency from its due time, payload, last delivery
/// time) and returns true with its stamp in `*s`.
bool RecordDelivery(Oracle& oracle, const std::string& value, TimeNs now,
                    Result* r, Stamp* s);

/// Copies the oracle's verdicts into `r` once the run has drained.
void TakeVerdicts(const Oracle& oracle, Result* r);

/// The deployment knobs every workload shares: broker count, seed, one
/// deterministic simulation shard, tracing when requested.
harness::DeploymentConfig Deployment(const Options& opt, int brokers);

/// Runs the engine from `start` through `start + run` in 20 equal slices
/// and records, per slice, records delivered per host second.
void MeasureSlices(harness::TestCluster& c, TimeNs start, TimeNs run,
                   const std::function<uint64_t()>& delivered, Result* r);

/// Closed-loop counterpart of MeasureSlices: the slices are twentieths of
/// `total` delivered records instead of a virtual duration. A slice also
/// ends once `finished` holds (records that will never arrive).
void MeasureProgress(harness::TestCluster& c, uint64_t total,
                     const std::function<uint64_t()>& delivered,
                     const std::function<bool()>& finished, Result* r);

/// Reads the brokers' request-queue and API histograms and the RDMA
/// gauges into `r->layers`; call before the deployment is torn down.
void CollectDeploymentLayers(harness::TestCluster& c, Result* r);

void RunKdStream(const Options& opt, Result* r, ClientSpans* spans);
void RunTcpStream(const Options& opt, Result* r, ClientSpans* spans);
void RunIotBurst(const Options& opt, Result* r, ClientSpans* spans);
void RunMuxFanin(const Options& opt, Result* r, ClientSpans* spans);
// Not in BENCHMARK.json: each runs a listed workload in the configuration
// that exposes one known failure of the seed commit, so a fix shows as a
// drop in `failed` (README, known baseline failures).
void RunKdStreamShared4(const Options& opt, Result* r, ClientSpans* spans);
void RunTcpStreamPipelined(const Options& opt, Result* r, ClientSpans* spans);
void RunIotBurstUnpadded(const Options& opt, Result* r, ClientSpans* spans);

/// Writes `<dir>/<workload>.trace.json` (client spans relabelled by record)
/// and `<dir>/<workload>.layers.json` (per span name: count, total and
/// self time), and fills `r->span_layers` with the span-derived metrics.
bool WriteTraceOutputs(const obs::SpanTracer& tracer,
                       const ClientSpans& spans, const Options& opt,
                       Result* r);

}  // namespace kdbench
}  // namespace kafkadirect
