// ISSUE 8 tentpole end-to-end: per-tenant SLO audit fed by real consumers,
// live invariant monitor catching a seeded fault mid-run, and the
// deterministic flight-recorder dump that documents it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "harness/harness.h"

namespace kafkadirect {
namespace harness {
namespace {

struct TenantRow {
  uint64_t records = 0;
  uint64_t bytes = 0;
  int64_t min_delay = 0;
  int64_t p99 = 0;
};

std::map<uint64_t, TenantRow> TenantsOf(TestCluster& cluster) {
  std::map<uint64_t, TenantRow> out;
  cluster.fabric().obs().slo.ForEach(
      [&](const std::string&, uint64_t tenant, const obs::TenantSlo& t) {
        TenantRow& row = out[tenant];
        row.records += t.records;
        row.bytes += t.bytes;
        row.min_delay = t.delay.min();
        row.p99 = t.delay.Percentile(99);
      });
  return out;
}

void CheckTenantAccounting(TestCluster& cluster, SystemKind kind) {
  EndToEndOptions options;
  options.producers = 3;
  options.records_per_producer = 40;
  options.record_size = 512;
  WorkloadResult result = RunEndToEndWorkload(cluster, kind, options);
  const uint64_t total = 3u * 40u;
  ASSERT_EQ(result.errors, 0u);
  EXPECT_EQ(result.records, total);
  EXPECT_EQ(result.latency.count(), total);

  obs::SloTracker& slo = cluster.fabric().obs().slo;
  EXPECT_EQ(slo.total_records(), total);
  std::map<uint64_t, TenantRow> tenants = TenantsOf(cluster);
  // Exactly the tagged tenants 1..3 — no untagged (id 0) traffic leaked in.
  ASSERT_EQ(tenants.size(), 3u);
  EXPECT_EQ(tenants.count(0), 0u);
  for (uint64_t id = 1; id <= 3; id++) {
    ASSERT_EQ(tenants.count(id), 1u) << "tenant " << id;
    const TenantRow& row = tenants[id];
    EXPECT_EQ(row.records, 40u) << "tenant " << id;
    // key ("k") + value payload bytes, attributed per tenant.
    EXPECT_EQ(row.bytes, 40u * 513u) << "tenant " << id;
    // Delivery takes nonzero virtual time and the tail is sane.
    EXPECT_GT(row.min_delay, 0) << "tenant " << id;
    EXPECT_GE(row.p99, row.min_delay) << "tenant " << id;
  }

  // The report serializes with every tenant present.
  std::ostringstream os;
  slo.WriteJson(os);
  const std::string json = os.str();
  for (const char* key : {"\"1\"", "\"2\"", "\"3\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"jain_fairness\""), std::string::npos);
}

TEST(SloAuditTest, TcpConsumerAttributesTenants) {
  DeploymentConfig deploy;
  TestCluster cluster(deploy);
  CheckTenantAccounting(cluster, SystemKind::kKafka);
}

TEST(SloAuditTest, RdmaConsumerAttributesTenants) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  TestCluster cluster(deploy);
  // Shared (FAA) produce: several tenants target one partition, which
  // exclusive mode by definition cannot (one owner per file).
  CheckTenantAccounting(cluster, SystemKind::kKdShared);
}

TEST(SloAuditTest, SloTaggingDoesNotPerturbDelivery) {
  // Tenant ids ride an existing batch-header field, so turning the audit on
  // (it is always on) must not change what gets delivered: every produced
  // record arrives exactly once per tenant even with shared FAA produce.
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  TestCluster cluster(deploy);
  EndToEndOptions options;
  options.producers = 4;
  options.records_per_producer = 25;
  WorkloadResult result =
      RunEndToEndWorkload(cluster, SystemKind::kKdShared, options);
  ASSERT_EQ(result.errors, 0u);
  EXPECT_EQ(result.records, 100u);
  std::map<uint64_t, TenantRow> tenants = TenantsOf(cluster);
  ASSERT_EQ(tenants.size(), 4u);
  for (auto& [id, row] : tenants) EXPECT_EQ(row.records, 25u) << id;
}

// --- live monitor + seeded fault -----------------------------------------

DeploymentConfig FaultyDeploy() {
  DeploymentConfig deploy;
  deploy.num_brokers = 2;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_replicate = true;
  // The seeded fault: the follower tops the leader's replication credits
  // up PAST the window cap, which must trip direct.credit_window mid-run.
  deploy.broker.fault_credit_overgrant = 8;
  return deploy;
}

WorkloadResult RunReplicatedProduce(TestCluster& cluster) {
  ProduceOptions options;
  options.records_per_producer = 150;
  options.record_size = 1024;
  options.max_inflight = 8;
  options.replication_factor = 2;
  return RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
}

TEST(MonitorIntegrationTest, SeededCreditOvergrantFiresMidRun) {
  TestCluster cluster(FaultyDeploy());
  obs::Observability& ob = cluster.fabric().obs();
  obs::InstallStandardWatchers(ob.monitor);
  int hook_calls = 0;
  ob.monitor.set_violation_hook(
      [&](const obs::Monitor::Violation&) { hook_calls++; });
  ob.monitor.StartTicking(cluster.sim(), ob.metrics, Micros(100));

  WorkloadResult result = RunReplicatedProduce(cluster);
  ASSERT_EQ(result.errors, 0u);
  const sim::TimeNs end = cluster.sim().Now();
  ob.monitor.StopTicking();

  // Exactly the seeded invariant fired, from a tick DURING the run.
  ASSERT_EQ(ob.monitor.violations().size(), 1u);
  const obs::Monitor::Violation& v = ob.monitor.violations()[0];
  EXPECT_EQ(v.watcher, "direct.credit_window");
  EXPECT_NE(v.detail.find("credits_outstanding"), std::string::npos);
  EXPECT_GT(v.at_ns, 0);
  EXPECT_LT(v.at_ns, end);
  EXPECT_EQ(hook_calls, 1);
  // The gauge's high-water indeed crossed the cap.
  const obs::Gauge* outstanding =
      ob.metrics.FindGauge("kd.direct.repl.credits_outstanding");
  const obs::Gauge* cap = ob.metrics.FindGauge("kd.direct.repl.credit_cap");
  ASSERT_NE(outstanding, nullptr);
  ASSERT_NE(cap, nullptr);
  EXPECT_GT(outstanding->high_water(), cap->value());
}

TEST(MonitorIntegrationTest, CleanRunStaysSilent) {
  DeploymentConfig deploy = FaultyDeploy();
  deploy.broker.fault_credit_overgrant = 0;  // fault off: same run is clean
  TestCluster cluster(deploy);
  obs::Observability& ob = cluster.fabric().obs();
  obs::InstallStandardWatchers(ob.monitor);
  ob.monitor.StartTicking(cluster.sim(), ob.metrics, Micros(100));
  WorkloadResult result = RunReplicatedProduce(cluster);
  ASSERT_EQ(result.errors, 0u);
  ob.monitor.StopTicking();
  EXPECT_TRUE(ob.monitor.violations().empty());
  EXPECT_GT(ob.monitor.checks_run(), 10u);
}

// --- deterministic flight dump -------------------------------------------

// QP numbers are allocated process-globally, so two runs in one process see
// different raw qp_nums; everything else in the event stream must be
// byte-for-byte deterministic. Normalize qp-carrying payload words to
// first-appearance indices and demand full equality.
struct NormalizedEvent {
  int64_t ts_ns;
  uint8_t type;
  uint8_t shard;
  uint32_t a;
  uint32_t b;
  uint64_t c;
  bool operator==(const NormalizedEvent& o) const {
    return ts_ns == o.ts_ns && type == o.type && shard == o.shard &&
           a == o.a && b == o.b && c == o.c;
  }
};

std::vector<NormalizedEvent> NormalizedFlight(TestCluster& cluster) {
  std::map<uint32_t, uint32_t> qp_map;
  std::vector<NormalizedEvent> out;
  for (const obs::FlightEvent& e : cluster.fabric().obs().flight
           .MergedSnapshot()) {
    NormalizedEvent n{e.ts_ns, static_cast<uint8_t>(e.type), e.shard, e.a,
                      e.b, e.c};
    if (e.type == obs::FlightEventType::kVerbPosted ||
        e.type == obs::FlightEventType::kRnr ||
        e.type == obs::FlightEventType::kCreditGrant) {
      auto [it, inserted] =
          qp_map.emplace(e.a, static_cast<uint32_t>(qp_map.size()));
      n.a = it->second;
    }
    out.push_back(n);
  }
  return out;
}

TEST(FlightRecorderIntegrationTest, DumpIsDeterministicAcrossRuns) {
  // Two identical deployments + workloads; the golden property is that the
  // recorded event streams match event-for-event (modulo the process-global
  // qp numbering), so a flight dump from a failing run can be compared
  // against a rerun.
  std::vector<NormalizedEvent> first, second;
  for (int run = 0; run < 2; run++) {
    TestCluster cluster(FaultyDeploy());
    WorkloadResult result = RunReplicatedProduce(cluster);
    KD_CHECK(result.errors == 0);
    (run == 0 ? first : second) = NormalizedFlight(cluster);
  }
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); i++) {
    EXPECT_TRUE(first[i] == second[i]) << "event " << i << " diverged";
  }
}

TEST(FlightRecorderIntegrationTest, DatapathEventsAreCaptured) {
  TestCluster cluster(FaultyDeploy());
  WorkloadResult result = RunReplicatedProduce(cluster);
  ASSERT_EQ(result.errors, 0u);
  obs::FlightRecorder& flight = cluster.fabric().obs().flight;
  EXPECT_GT(flight.recorded(), 0u);
  std::map<obs::FlightEventType, uint64_t> by_type;
  for (const obs::FlightEvent& e : flight.MergedSnapshot()) by_type[e.type]++;
  // A replicated RDMA produce run exercises verbs, commits, HWM advances,
  // and credit grants.
  EXPECT_GT(by_type[obs::FlightEventType::kVerbPosted], 0u);
  EXPECT_GT(by_type[obs::FlightEventType::kCommit], 0u);
  EXPECT_GT(by_type[obs::FlightEventType::kHwmAdvance], 0u);
  EXPECT_GT(by_type[obs::FlightEventType::kCreditGrant], 0u);

  // The dump lands on disk as parseable Chrome trace JSON.
  const std::string path = ::testing::TempDir() + "kd_flight_test_dump.json";
  ASSERT_TRUE(flight.WriteChromeTraceFile(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string dump = buf.str();
  EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(dump.find("\"verb_posted\""), std::string::npos);
  EXPECT_NE(dump.find("\"credit_grant\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace harness
}  // namespace kafkadirect
