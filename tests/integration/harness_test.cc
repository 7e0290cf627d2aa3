// Tests of the bench/example harness itself — the workload drivers must be
// trustworthy, since every figure is generated through them.
#include "harness/harness.h"

#include <gtest/gtest.h>

namespace kafkadirect {
namespace harness {
namespace {

TEST(HarnessTest, ProduceWorkloadCountsEveryRecord) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  TestCluster cluster(deploy);
  ProduceOptions options;
  options.partitions = 3;  // exclusive grants: one producer per partition
  options.producers = 3;
  options.records_per_producer = 20;
  options.record_size = 256;
  options.max_inflight = 4;
  auto result = RunProduceWorkload(cluster, SystemKind::kKdExclusive,
                                   options);
  EXPECT_EQ(result.records, 60u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.latency.count(), 60u);
  EXPECT_GT(result.mib_per_sec, 0.0);
  EXPECT_GT(result.elapsed_ns, 0);
}

TEST(HarnessTest, LatencyModeIsSlowerPerRecordThanPipelined) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  TestCluster cluster(deploy);
  ProduceOptions sync_opts;
  sync_opts.records_per_producer = 50;
  sync_opts.max_inflight = 1;
  auto sync_run = RunProduceWorkload(cluster, SystemKind::kKafka, sync_opts);
  ProduceOptions piped = sync_opts;
  piped.max_inflight = 8;
  auto piped_run = RunProduceWorkload(cluster, SystemKind::kKafka, piped);
  EXPECT_GT(piped_run.mib_per_sec, sync_run.mib_per_sec * 2);
}

TEST(HarnessTest, ConsumeWorkloadDeliversPreload) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  TestCluster cluster(deploy);
  ConsumeOptions options;
  options.preload_records = 100;
  options.record_size = 512;
  for (SystemKind kind : {SystemKind::kKafka, SystemKind::kKdExclusive}) {
    auto result = RunConsumeWorkload(cluster, kind, options);
    EXPECT_EQ(result.records, 100u) << SystemName(kind);
    EXPECT_GT(result.mib_per_sec, 0.0);
  }
}

TEST(HarnessTest, RdmaConsumeLatencyFarBelowTcp) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  TestCluster cluster(deploy);
  ConsumeOptions options;
  options.preload_records = 200;
  options.record_size = 64;
  auto tcp = RunConsumeWorkload(cluster, SystemKind::kKafka, options);
  auto rdma = RunConsumeWorkload(cluster, SystemKind::kKdExclusive, options);
  // Paper §5.3: ~50x; require at least 10x here.
  EXPECT_GT(tcp.latency.Median(), rdma.latency.Median() * 10);
}

TEST(HarnessTest, EmptyFetchLatencyGap) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  TestCluster cluster(deploy);
  auto tcp = RunEmptyFetchLatency(cluster, SystemKind::kKafka, 50);
  auto rdma = RunEmptyFetchLatency(cluster, SystemKind::kKdExclusive, 50);
  EXPECT_GT(tcp.latency.Median(), Micros(100));
  EXPECT_LT(rdma.latency.Median(), Micros(5));
  EXPECT_EQ(tcp.records, 50u);
  EXPECT_EQ(rdma.records, 50u);
}

TEST(HarnessTest, EmptyFetchFloodLeavesBrokerCpuIdle) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  TestCluster cluster(deploy);
  double rate = RunEmptyFetchThroughput(cluster, SystemKind::kKdExclusive,
                                        8, Millis(50));
  EXPECT_GT(rate, 1e6);  // millions of checks/s
  EXPECT_EQ(cluster.Broker(0)->stats().fetch_requests, 0u);
}

TEST(HarnessTest, SystemNamesAreStable) {
  EXPECT_STREQ(SystemName(SystemKind::kKafka), "Kafka");
  EXPECT_STREQ(SystemName(SystemKind::kOsuKafka), "OSU-Kafka");
  EXPECT_STREQ(SystemName(SystemKind::kKdExclusive), "KD-Exclusive");
  EXPECT_STREQ(SystemName(SystemKind::kKdShared), "KD-Shared");
}

TEST(HarnessTest, DeploymentRunsOnOneSimulator) {
  TestCluster cluster(DeploymentConfig{});
  EXPECT_EQ(&cluster.engine(), &cluster.sim());
  DeploymentConfig sharded;
  sharded.sim_shards = 4;
  EXPECT_DEATH(TestCluster{sharded}, "sim_shards");
}

TEST(HarnessTest, PaperRecordSizesDoubling) {
  auto sizes = PaperRecordSizes(32, 1024);
  EXPECT_EQ(sizes, (std::vector<size_t>{32, 64, 128, 256, 512, 1024}));
}

}  // namespace
}  // namespace harness
}  // namespace kafkadirect
