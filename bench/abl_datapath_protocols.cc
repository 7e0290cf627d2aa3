// Ablation: ring-buffer Write consume vs the paper's one-sided Read
// consume (DESIGN.md §12), measured as RDMA Reads and notifications per
// record on the same deterministic workload. All metrics are virtual-time
// or event counts, so every run on every host produces identical numbers;
// the committed BENCH_datapath_protocols.baseline.json is gated by
// tools/bench_compare.py in tools/run_tier1.sh.
//
// Flags: --json=<path> writes the rows as JSON.
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/harness.h"

namespace kafkadirect {
namespace bench {
namespace {

using harness::Cell;
using harness::SystemKind;

struct Row {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;

  double Get(const std::string& key) const {
    for (const auto& [k, v] : metrics) {
      if (k == key) return v;
    }
    return 0;
  }
};

uint64_t Counter(harness::TestCluster& cluster, const std::string& name) {
  const obs::Counter* c = cluster.fabric().obs().metrics.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

Row ConsumePoint(bool ring) {
  harness::DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  harness::TestCluster cluster(deploy);
  harness::ConsumeOptions options;
  options.preload_records = 400;
  options.record_size = 1024;
  options.ring_consume = ring;
  auto result =
      harness::RunConsumeWorkload(cluster, SystemKind::kKdExclusive, options);
  KD_CHECK(result.records == 400);
  double n = static_cast<double>(result.records);
  return Row{
      std::string("consume/") + (ring ? "ring" : "read"),
      {{"reads_per_record", Counter(cluster, "kd.rdma.ops.read") / n},
       {"notifications_per_record",
        Counter(cluster, "kd.direct.notifications") / n},
       {"mib_per_sec", result.mib_per_sec},
       {"elapsed_us", result.elapsed_ns / 1000.0}}};
}

void PrintRows(const std::vector<Row>& rows,
               const std::vector<std::string>& keys) {
  for (const Row& row : rows) {
    // Pad the name past PrintRow's 14-char cell so long point names do
    // not run into the first metric column.
    std::string name = row.name;
    if (name.size() < 24) name.resize(24, ' ');
    std::vector<std::string> cells = {name};
    for (const std::string& key : keys) cells.push_back(Cell(row.Get(key), 3));
    harness::PrintRow(cells);
  }
}

void Run(const std::string& json_path) {
  harness::PrintFigureHeader(
      "Ablation: ring-buffer consume", "1 KiB record-at-a-time consume",
      {"point", "reads/rec", "notif/rec", "MiB/s", "elapsed_us"});
  std::vector<Row> rows = {ConsumePoint(false), ConsumePoint(true)};
  PrintRows(rows, {"reads_per_record", "notifications_per_record",
                   "mib_per_sec", "elapsed_us"});
  KD_CHECK(rows[1].Get("reads_per_record") == 0)
      << "ring consume must not issue RDMA Reads";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < rows.size(); i++) {
      out << "    {\"name\": \"" << rows[i].name << "\"";
      for (const auto& [key, value] : rows[i].metrics) {
        out << ", \"" << key << "\": " << value;
      }
      out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
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
