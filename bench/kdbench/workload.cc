#include "workload.h"

#include <sys/resource.h>

namespace kafkadirect {
namespace kdbench {

CounterSnapshot Snapshot(const obs::MetricsRegistry& m) {
  CounterSnapshot s;
  m.ForEachCounter([&](const std::string& name, const obs::Counter& c) {
    s[name] = c.value();
  });
  return s;
}

CounterSnapshot Diff(const CounterSnapshot& after,
                     const CounterSnapshot& before) {
  CounterSnapshot d;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    d[name] = v - (it == before.end() ? 0 : it->second);
  }
  return d;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool RecordDelivery(Oracle& oracle, const std::string& value, TimeNs now,
                    Result* r, Stamp* s) {
  Oracle::Verdict v = oracle.Deliver(value, s);
  if (v != Oracle::Verdict::kOk && v != Oracle::Verdict::kReordered) {
    return false;
  }
  r->delivery_ns.Add(now - s->due_ns);
  r->delivered_payload_bytes += value.size();
  r->last_delivery_ns = now;
  return true;
}

void TakeVerdicts(const Oracle& oracle, Result* r) {
  r->delivered = oracle.delivered();
  r->lost = oracle.Lost();
  r->duplicated = oracle.duplicated();
  r->reordered = oracle.reordered();
  r->corrupted = oracle.corrupted();
}

harness::DeploymentConfig Deployment(const Options& opt, int brokers) {
  harness::DeploymentConfig cfg;
  cfg.num_brokers = brokers;
  cfg.seed = opt.seed;
  cfg.enable_tracing = opt.traced();
  cfg.sim_shards = 1;
  return cfg;
}

namespace {

constexpr int kSlices = 20;

/// Runs one slice and records its delivered records per host second.
void TimeSlice(const std::function<void()>& run_slice,
               const std::function<uint64_t()>& delivered, Result* r) {
  uint64_t d0 = delivered();
  double h0 = HostSeconds();
  run_slice();
  double h = HostSeconds() - h0;
  r->measured_host_s += h;
  r->slice_krec_s.push_back(static_cast<double>(delivered() - d0) / h / 1e3);
}

}  // namespace

void MeasureSlices(harness::TestCluster& c, TimeNs start, TimeNs run,
                   const std::function<uint64_t()>& delivered, Result* r) {
  for (int k = 1; k <= kSlices; k++) {
    TimeSlice([&] { c.engine().RunUntil(start + run * k / kSlices); },
              delivered, r);
  }
}

void MeasureProgress(harness::TestCluster& c, uint64_t total,
                     const std::function<uint64_t()>& delivered,
                     const std::function<bool()>& finished, Result* r) {
  for (int k = 1; k <= kSlices; k++) {
    uint64_t target = total * static_cast<uint64_t>(k) / kSlices;
    TimeSlice(
        [&] {
          c.engine().RunUntilDone(
              [&] { return delivered() >= target || finished(); },
              c.engine().Now() + Seconds(60));
        },
        delivered, r);
  }
}

namespace {

/// Merges every histogram whose name ends in `suffix` (one per broker).
obs::LogLinearHistogram MergeSuffix(const obs::MetricsRegistry& m,
                                    const std::string& suffix) {
  obs::LogLinearHistogram out;
  m.ForEachHistogram(
      [&](const std::string& name, const obs::LogLinearHistogram& h) {
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
          out.Merge(h);
        }
      });
  return out;
}

}  // namespace

void CollectDeploymentLayers(harness::TestCluster& c, Result* r) {
  const obs::MetricsRegistry& m = c.fabric().obs().metrics;
  auto us = [&](const char* name, const obs::LogLinearHistogram& h,
                double p) {
    r->layers.push_back({name, static_cast<double>(h.Percentile(p)) / 1000.0,
                         "us", h.count()});
  };
  obs::LogLinearHistogram wait = MergeSuffix(m, ".request_queue.wait_ns");
  obs::LogLinearHistogram produce =
      MergeSuffix(m, ".api.produce.latency_ns");
  obs::LogLinearHistogram fetch = MergeSuffix(m, ".api.fetch.latency_ns");
  us("kafka.request_queue_wait_us_p50", wait, 50);
  us("kafka.request_queue_wait_us_p99", wait, 99);
  us("kafka.api_produce_us_p50", produce, 50);
  us("kafka.api_produce_us_p99", produce, 99);
  us("kafka.api_fetch_us_p50", fetch, 50);
  if (const obs::LogLinearHistogram* batch =
          m.FindHistogram("kd.rdma.cq.poll_batch")) {
    r->layers.push_back({"rdma.cq_poll_batch_p50",
                         static_cast<double>(batch->Percentile(50)), "count",
                         batch->count()});
  }
  if (const obs::Gauge* live = m.FindGauge("kd.rdma.cache.live_qps")) {
    r->layers.push_back({"mux.live_qps_max",
                         static_cast<double>(live->high_water()), "count"});
  }
  uint64_t meta_peak = 0;
  for (int b = 0; b < c.cluster().num_brokers(); b++) {
    meta_peak = std::max(meta_peak, c.Broker(b)->mux_meta_peak_bytes());
  }
  r->layers.push_back(
      {"mux.meta_peak_kib", static_cast<double>(meta_peak) / 1024.0, "KiB"});
}

}  // namespace kdbench
}  // namespace kafkadirect
