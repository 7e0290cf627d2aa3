// SLO audit table: N tenants produce concurrently into one shared
// partition (replicated, fixed credit window) while one consumer drains
// it; the per-tenant delivery-delay percentiles, goodput, and the topic's
// Jain fairness index come straight out of the always-on SloTracker.
//
// This is also the tier-1 monitor exercise: run with
//   --strict --monitor_period=100000
// and every standard invariant (byte conservation, credit window, HWM
// monotonicity, ...) is checked live every 100 us of virtual time; a
// violation dumps the flight recorder and aborts. --slo_json /
// --metrics_json / --flight_dump write the machine-readable reports
// (BENCH_slo.baseline.json is the committed metrics dump).
#include <cinttypes>

#include "harness/harness.h"

namespace kafkadirect {
namespace bench {
namespace {

using harness::Cell;

constexpr int kTenants = 4;
constexpr int kRecordsPerTenant = 200;
constexpr size_t kRecordSize = 1024;

void Run() {
  harness::DeploymentConfig deploy;
  deploy.num_brokers = 2;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  deploy.broker.rdma_replicate = true;
  harness::TestCluster cluster(deploy);

  harness::EndToEndOptions options;
  options.topic = "slo";
  options.producers = kTenants;
  options.records_per_producer = kRecordsPerTenant;
  options.record_size = kRecordSize;
  options.max_inflight = 4;
  options.replication_factor = 2;
  harness::WorkloadResult result = harness::RunEndToEndWorkload(
      cluster, harness::SystemKind::kKdShared, options);
  KD_CHECK(result.errors == 0);

  harness::PrintFigureHeader(
      "SLO audit", "Per-tenant delivery delay and goodput (shared produce, "
                   "rf=2)",
      {"tenant", "records", "MiB/s", "p50_us", "p99_us", "p999_us"});
  std::vector<double> goodputs;
  cluster.fabric().obs().slo.ForEach(
      [&](const std::string&, uint64_t tenant, const obs::TenantSlo& t) {
        goodputs.push_back(t.GoodputMiBps());
        harness::PrintRow(
            {std::to_string(tenant), std::to_string(t.records),
             Cell(t.GoodputMiBps(), 2),
             Cell(static_cast<double>(t.delay.Percentile(50)) / 1000.0),
             Cell(static_cast<double>(t.delay.Percentile(99)) / 1000.0),
             Cell(static_cast<double>(t.delay.Percentile(99.9)) / 1000.0)});
      });
  std::printf("\nJain fairness index: %.4f over %d tenants, %" PRIu64
              " records total\n",
              obs::SloTracker::JainIndex(goodputs), kTenants,
              cluster.fabric().obs().slo.total_records());
  std::printf("Paper: one-sided shared produce serves all tenants from one "
              "partition;\nfair delivery shows up as a Jain index near "
              "1.0.\n");
}

}  // namespace
}  // namespace bench
}  // namespace kafkadirect

int main(int argc, char** argv) {
  kafkadirect::harness::InitObsFromArgs(argc, argv);
  kafkadirect::bench::Run();
  return 0;
}
