// kdbench: runs one named workload against a simulated KafkaDirect or
// Kafka deployment and prints every end-to-end and per-layer metric with
// its unit.
//
//   kdbench --workload=<name> --seed=<n> [--json=<path>] [--trace=<dir>]
//           [--length=<f>] [--commit=<sha>]
//
// The workloads of BENCHMARK.json are kd_stream, tcp_stream, iot_burst and
// mux_fanin. kd_stream_shared4, tcp_stream_pipelined and iot_burst_unpadded
// run one of them in the configuration that exposes a known failure of the
// seed commit.
//
// Two clocks: virtual time (the simulator's, the paper's latencies) and
// host time (how fast the simulator produces them). Virtual-time metrics
// repeat bit for bit for a given seed and length, traced or not. Host-time
// metrics are only emitted from a Release build.
//
// --trace=<dir> runs the same workload with the deployment's spans on, adds
// client.* spans around its own calls, and writes
// <dir>/<workload>.trace.json and <dir>/<workload>.layers.json. End-to-end
// numbers are meant to be taken from an untraced run.
//
// Exit status: 0 for a well-formed run, even one whose oracle found failed
// records (they are reported in failed_frac). 2 for a malformed run:
// generator lateness above zero, or a metric with no samples behind it.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "workload.h"
#include "kafka/record.h"

#ifndef KDBENCH_BUILD_TYPE
#define KDBENCH_BUILD_TYPE "unknown"
#endif

namespace kafkadirect {
namespace kdbench {
namespace {

struct Provenance {
  std::string commit = "unknown";
  std::string build_type = KDBENCH_BUILD_TYPE;
  unsigned nproc = std::thread::hardware_concurrency();
  double load_avg_1m = -1;
};

bool HostMetricsAllowed(const Provenance& p) {
  return p.build_type == "Release";
}

/// Host ns per RecordBatchBuilder::Build of one record of `value_bytes`,
/// CRC included; median of five timed loops.
double BatchBuildHostNs(size_t value_bytes, uint64_t seed) {
  Filler filler(seed);
  std::string value = filler.Make(Stamp{1, 1, 0}, value_bytes);
  constexpr int kIters = 20000;
  std::vector<double> reps;
  volatile uint8_t sink = 0;  // keeps the builds observable
  for (int rep = 0; rep < 5; rep++) {
    double h0 = HostSeconds();
    for (int i = 0; i < kIters; i++) {
      kafka::RecordBatchBuilder b(0, i, 1);
      b.Add(Slice("k", 1), Slice(value));
      sink = b.Build().back();
    }
    reps.push_back((HostSeconds() - h0) * 1e9 / kIters);
  }
  (void)sink;
  return Median(reps);
}

/// The 95th percentile (nearest rank) of the per-slice host throughputs,
/// the second-fastest of 20 slices. A shared host's speed drifts within a
/// run: a slice it slowed drops out, while the single fastest slice is not
/// trusted either.
double HostKrecS(std::vector<double> slices) {
  if (slices.empty()) return 0;
  std::sort(slices.begin(), slices.end());
  size_t rank = (slices.size() * 95 + 99) / 100;  // ceil(0.95 n)
  return slices[rank - 1];
}

double PerRec(const Result& r, double v) {
  return r.delivered == 0 ? 0 : v / static_cast<double>(r.delivered);
}

uint64_t Count(const Result& r, const std::string& name) {
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

uint64_t SumSuffix(const Result& r, const std::string& suffix) {
  uint64_t sum = 0;
  for (const auto& [name, v] : r.counters) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += v;
    }
  }
  return sum;
}

double Frac(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

Metric Us(const std::string& name, const Histogram& h, double p) {
  return {name, static_cast<double>(h.Percentile(p)) / 1000.0, "us",
          h.count()};
}

Metric CallUs(const Result& r, const std::string& stem, double p,
              const std::string& name) {
  auto it = r.calls.find(stem);
  if (it == r.calls.end()) return {name, 0, "us"};
  return Us(name, it->second, p);
}

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<std::string> host_clock;  // names measured on the host clock
};

Report BuildReport(const Options& opt, const Result& r, const Provenance& p) {
  Report rep;
  auto& e = rep.end_to_end;
  e.push_back(Us("ack_us_p50", r.ack_ns, 50));
  e.push_back(Us("ack_us_p999", r.ack_ns, 99.9));
  e.push_back(Us("delivery_us_p50", r.delivery_ns, 50));
  e.push_back(Us("delivery_us_p999", r.delivery_ns, 99.9));
  if (!opt.traced()) {
    e.push_back({"sustained_krec_s", r.sustained_krec_s, "krec/s"});
  }
  e.push_back(
      {"goodput_mib_s",
       r.measured_virtual_ns == 0
           ? 0
           : static_cast<double>(r.delivered_payload_bytes) / (1 << 20) /
                 (static_cast<double>(r.measured_virtual_ns) / 1e9),
       "MiB/s"});
  e.push_back({"failed_frac", Frac(r.failed(), r.attempted), "ratio"});
  bool host = HostMetricsAllowed(p);
  if (host) {
    e.push_back({"host_krec_s", HostKrecS(r.slice_krec_s), "krec/s"});
    e.push_back({"setup_s", Median(r.setup_s), "s"});
    e.push_back({"peak_rss_mib", r.peak_rss_mib, "MiB"});
    rep.host_clock = {"host_krec_s", "setup_s", "peak_rss_mib"};
  }

  auto& l = rep.layers;
  auto add = [&](const std::string& name, double v, const char* unit) {
    l.push_back({name, v, unit});
  };
  auto from_workload = [&](const std::string& name, const char* unit) {
    for (const Metric& m : r.layers) {
      if (m.name == name) {
        l.push_back(m);
        return;
      }
    }
    l.push_back({name, 0, unit});
  };
  add("sim.events_per_rec",
      PerRec(r, static_cast<double>(r.measured_events)), "count");
  l.push_back(CallUs(r, "direct.produce_call", 50,
                     "direct.produce_call_us_p50"));
  l.push_back(CallUs(r, "direct.produce_call", 99.9,
                     "direct.produce_call_us_p999"));
  add("direct.notifications_per_rec",
      PerRec(r, Count(r, "kd.direct.notifications")), "count");
  add("direct.ctrl_msgs_per_rec", PerRec(r, Count(r, "kd.direct.ctrl_msgs")),
      "count");
  from_workload("direct.rotations", "count");
  from_workload("direct.produce_errors", "count");
  l.push_back(CallUs(r, "direct.poll", 50, "direct.poll_us_p50"));
  from_workload("direct.poll_useful_frac", "ratio");
  from_workload("direct.file_switches", "count");
  l.push_back(CallUs(r, "direct.connect", 50, "direct.connect_us"));
  add("rdma.wrs_per_rec", PerRec(r, Count(r, "kd.rdma.wrs_posted")), "count");
  add("rdma.doorbells_per_rec", PerRec(r, Count(r, "kd.rdma.doorbells")),
      "count");
  add("rdma.cqes_per_rec", PerRec(r, Count(r, "kd.rdma.cqes")), "count");
  add("rdma.reads_per_rec", PerRec(r, Count(r, "kd.rdma.ops.read")), "count");
  add("rdma.atomics_per_rec", PerRec(r, Count(r, "kd.rdma.ops.atomic")),
      "count");
  add("rdma.bytes_per_rec", PerRec(r, Count(r, "kd.rdma.bytes_posted")), "B");
  add("rdma.signaled_frac",
      Frac(Count(r, "kd.rdma.wrs_signaled"), Count(r, "kd.rdma.wrs_posted")),
      "ratio");
  add("rdma.inline_frac",
      Frac(Count(r, "kd.rdma.inline_sends"), Count(r, "kd.rdma.ops.send")),
      "ratio");
  add("rdma.rnr_events", Count(r, "kd.rdma.rnr_events"), "count");
  from_workload("rdma.cq_poll_batch_p50", "count");
  l.push_back(CallUs(r, "mux.open", 50, "mux.open_us_p50"));
  l.push_back(CallUs(r, "mux.open", 99.9, "mux.open_us_p999"));
  l.push_back(CallUs(r, "mux.close", 50, "mux.close_us_p50"));
  add("mux.streams_opened", Count(r, "kd.rdma.mux.streams_opened"), "count");
  add("mux.admission_rejected", Count(r, "kd.broker.admission.rejected"),
      "count");
  add("mux.reconnects", Count(r, "kd.rdma.cache.reconnects"), "count");
  from_workload("mux.resynced_records", "count");
  from_workload("mux.live_qps_max", "count");
  from_workload("mux.meta_peak_kib", "KiB");
  l.push_back(CallUs(r, "kafka.produce_call", 50,
                     "kafka.produce_call_us_p50"));
  l.push_back(CallUs(r, "kafka.produce_call", 99.9,
                     "kafka.produce_call_us_p999"));
  l.push_back(CallUs(r, "kafka.poll", 50, "kafka.poll_us_p50"));
  from_workload("kafka.poll_useful_frac", "ratio");
  from_workload("kafka.request_queue_wait_us_p50", "us");
  from_workload("kafka.request_queue_wait_us_p99", "us");
  from_workload("kafka.api_produce_us_p50", "us");
  from_workload("kafka.api_produce_us_p99", "us");
  from_workload("kafka.api_fetch_us_p50", "us");
  add("kafka.hwm_updates_per_rec", PerRec(r, SumSuffix(r, ".hwm.updates")),
      "count");
  add("kafka.copied_bytes_per_rec",
      PerRec(r, SumSuffix(r, ".produce.copied_bytes")), "B");
  add("kafka.reordered", r.reordered, "count");
  add("tcpnet.syscalls_per_rec", PerRec(r, Count(r, "kd.tcp.syscalls")),
      "count");
  add("tcpnet.copied_bytes_per_rec", PerRec(r, Count(r, "kd.tcp.copied_bytes")),
      "B");
  add("tcpnet.messages_per_rec", PerRec(r, Count(r, "kd.tcp.messages")),
      "count");
  from_workload("stream.idle_backoffs_per_rec", "count");
  l.push_back(CallUs(r, "stream.commit", 50, "stream.commit_us_p50"));
  add("oracle.lost", r.lost, "count");
  add("oracle.duplicated", r.duplicated, "count");
  add("oracle.corrupted", r.corrupted, "count");
  add("oracle.admission_refused", r.admission_refusals, "count");
  if (host) {
    add("sim.host_ns_per_event",
        r.measured_events == 0
            ? 0
            : r.measured_host_s * 1e9 / static_cast<double>(r.measured_events),
        "ns");
    add("kafka.batch_build_host_ns",
        BatchBuildHostNs(r.record_bytes, opt.seed), "ns");
    from_workload("stream.ingest_host_ns", "ns");
    for (const char* n : {"sim.host_ns_per_event",
                          "kafka.batch_build_host_ns",
                          "stream.ingest_host_ns"}) {
      rep.host_clock.push_back(n);
    }
  }
  l.insert(l.end(), r.span_layers.begin(), r.span_layers.end());
  return rep;
}

void PrintMetric(const char* kind, const Metric& m) {
  std::printf("%-10s %-34s %16.6f %-8s", kind, m.name.c_str(), m.value,
              m.unit.c_str());
  if (m.samples > 0) std::printf(" n=%" PRIu64, m.samples);
  std::printf("\n");
}

void WriteMetrics(std::ostream& os, const std::vector<Metric>& ms,
                  const std::vector<std::string>& host_clock) {
  bool first = true;
  for (const Metric& m : ms) {
    bool host = std::find(host_clock.begin(), host_clock.end(), m.name) !=
                host_clock.end();
    char v[64];
    std::snprintf(v, sizeof(v), "%.17g", m.value);
    os << (first ? "" : ",\n") << "    \"" << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\", \"clock\": \""
       << (host ? "host" : "virtual") << "\", \"samples\": " << m.samples
       << "}";
    first = false;
  }
}

int Main(int argc, char** argv) {
  Options opt;
  Provenance prov;
  std::string json_path;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto val = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = val("--workload=")) {
      opt.workload = v;
    } else if (const char* v = val("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--json=")) {
      json_path = v;
    } else if (const char* v = val("--trace=")) {
      opt.trace_dir = v;
    } else if (const char* v = val("--length=")) {
      opt.length = std::strtod(v, nullptr);
    } else if (const char* v = val("--commit=")) {
      prov.commit = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 64;
    }
  }
  const std::map<std::string, void (*)(const Options&, Result*,
                                       ClientSpans*)>
      workloads = {{"kd_stream", RunKdStream},
                   {"tcp_stream", RunTcpStream},
                   {"iot_burst", RunIotBurst},
                   {"mux_fanin", RunMuxFanin},
                   {"kd_stream_shared4", RunKdStreamShared4},
                   {"tcp_stream_pipelined", RunTcpStreamPipelined},
                   {"iot_burst_unpadded", RunIotBurstUnpadded}};
  auto it = workloads.find(opt.workload);
  if (it == workloads.end() || !(opt.length > 0)) {
    std::fprintf(stderr, "usage: kdbench --workload=<");
    for (auto w = workloads.begin(); w != workloads.end(); ++w) {
      std::fprintf(stderr, "%s%s", w == workloads.begin() ? "" : "|",
                   w->first.c_str());
    }
    std::fprintf(stderr,
                 "> --seed=<n> [--json=<path>] [--trace=<dir>] "
                 "[--length=<f>] [--commit=<sha>]\n");
    return 64;
  }
  if (opt.traced()) std::filesystem::create_directories(opt.trace_dir);
  double load[1] = {-1};
  if (getloadavg(load, 1) == 1) prov.load_avg_1m = load[0];
  if (!HostMetricsAllowed(prov)) {
    std::fprintf(stderr,
                 "kdbench: %s build, host-time metrics withheld (build with "
                 "-DCMAKE_BUILD_TYPE=Release)\n",
                 prov.build_type.c_str());
  }

  Result r;
  ClientSpans spans;
  it->second(opt, &r, &spans);
  Report rep = BuildReport(opt, r, prov);

  std::printf("kdbench %s seed=%" PRIu64 " length=%g traced=%d commit=%s "
              "build=%s nproc=%u load=%.2f virtual_s=%.3f\n",
              opt.workload.c_str(), opt.seed, opt.length, opt.traced(),
              prov.commit.c_str(), prov.build_type.c_str(), prov.nproc,
              prov.load_avg_1m, r.measured_virtual_ns / 1e9);
  for (const Metric& m : rep.end_to_end) PrintMetric("end_to_end", m);
  for (const Metric& m : rep.layers) PrintMetric("layer", m);
  std::printf("oracle attempted=%" PRIu64 " delivered=%" PRIu64
              " produce_errors=%" PRIu64 " refused=%" PRIu64 " lost=%" PRIu64
              " duplicated=%" PRIu64 " reordered=%" PRIu64
              " corrupted=%" PRIu64 " lateness_ns=%" PRId64 "\n",
              r.attempted, r.delivered, r.produce_errors,
              r.admission_refusals, r.lost, r.duplicated, r.reordered,
              r.corrupted, r.max_lateness_ns);

  // The consumer's output is right: every record owed to it arrived once,
  // in order and intact. Failed operations (produce errors, admission
  // refusals) do not make it wrong; they are counted in `failed`.
  bool correct = r.lost + r.duplicated + r.reordered + r.corrupted == 0;
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"provenance\": {\"commit\": \"" << prov.commit
        << "\", \"build_type\": \"" << prov.build_type
        << "\", \"nproc\": " << prov.nproc
        << ", \"load_avg_1m\": " << prov.load_avg_1m
        << ", \"seed\": " << opt.seed << ", \"length\": " << opt.length
        << ", \"virtual_run_ns\": " << r.measured_virtual_ns
        << ", \"sim_threads\": 1, \"traced\": "
        << (opt.traced() ? "true" : "false") << "},\n"
        << "  \"workload\": \"" << opt.workload << "\",\n"
        << "  \"correct\": " << (correct ? "true" : "false")
        << ",\n  \"measured_host_s\": " << r.measured_host_s
        << ",\n  \"host_slice_krec_s\": [";
    for (size_t i = 0; i < r.slice_krec_s.size(); i++) {
      out << (i == 0 ? "" : ", ") << r.slice_krec_s[i];
    }
    out << "]"
        << ",\n  \"attempted\": " << r.attempted
        << ",\n  \"failed\": " << r.failed()
        << ",\n  \"failures\": {\"produce_errors\": " << r.produce_errors
        << ", \"admission_refused\": " << r.admission_refusals
        << ", \"lost\": " << r.lost << ", \"duplicated\": " << r.duplicated
        << ", \"reordered\": " << r.reordered
        << ", \"corrupted\": " << r.corrupted
        << ", \"generator_lateness_ns\": " << r.max_lateness_ns << "},\n"
        << "  \"end_to_end\": {\n";
    WriteMetrics(out, rep.end_to_end, rep.host_clock);
    out << "\n  },\n  \"per_layer\": {\n";
    WriteMetrics(out, rep.layers, rep.host_clock);
    out << "\n  }\n}\n";
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }

  if (r.max_lateness_ns > 0) {
    std::fprintf(stderr, "malformed run: generator ran %" PRId64
                         " ns late (the open loop closed)\n",
                 r.max_lateness_ns);
    return 2;
  }
  if (r.ack_ns.empty() || r.delivery_ns.empty()) {
    std::fprintf(stderr, "malformed run: no latency samples\n");
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace kdbench
}  // namespace kafkadirect

int main(int argc, char** argv) {
  return kafkadirect::kdbench::Main(argc, argv);
}
