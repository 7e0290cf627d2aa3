// Shared harness for KafkaDirect tests: a cluster of KafkaDirectBroker
// instances with selectable RDMA modules.
#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "common/units.h"
#include "direct/kd_broker.h"
#include "direct/rdma_consumer.h"
#include "direct/rdma_producer.h"
#include "kafka/cluster.h"
#include "kafka/consumer.h"
#include "kafka/producer.h"

namespace kafkadirect {
namespace kd {

class KdClusterTest : public ::testing::Test {
 public:
  void Boot(int num_brokers, int partitions, int rf,
            bool rdma_produce = true, bool rdma_replicate = false,
            bool rdma_consume = false, uint64_t segment_capacity = 8 * kMiB) {
    kafka::BrokerConfig cfg;
    cfg.segment_capacity = segment_capacity;
    cfg.rdma_produce = rdma_produce;
    cfg.rdma_replicate = rdma_replicate;
    cfg.rdma_consume = rdma_consume;
    BootWithConfig(cfg, num_brokers, partitions, rf);
  }

  /// Boot with a caller-built BrokerConfig (protocol-upgrade tests need
  /// knobs Boot() does not expose). Mutate `cost_` before calling.
  void BootWithConfig(const kafka::BrokerConfig& cfg, int num_brokers,
                      int partitions, int rf) {
    fabric_ = std::make_unique<net::Fabric>(sim_, cost_);
    tcpnet_ = std::make_unique<tcpnet::Network>(sim_, *fabric_);
    cluster_ = std::make_unique<kafka::Cluster>(sim_, *fabric_, *tcpnet_,
                                                cfg, num_brokers);
    cluster_->set_broker_factory(
        [](sim::Simulator& sim, net::Fabric& fabric, tcpnet::Network& tcp,
           kafka::BrokerConfig config) -> std::unique_ptr<kafka::Broker> {
          return std::make_unique<KafkaDirectBroker>(sim, fabric, tcp,
                                                     config);
        });
    KD_CHECK_OK(cluster_->Start());
    KD_CHECK_OK(cluster_->CreateTopic("t", partitions, rf));
    client_node_ = fabric_->AddNode("client");
  }

  KafkaDirectBroker* Leader(const kafka::TopicPartitionId& tp) {
    return static_cast<KafkaDirectBroker*>(cluster_->LeaderOf(tp));
  }

  void RunToFlag(const bool* done, sim::TimeNs deadline = Seconds(300)) {
    sim_.RunUntilDone([done]() { return *done; }, deadline);
    ASSERT_TRUE(*done) << "simulation deadline reached";
  }

  /// §14 teardown: closes broker-side state and drains the woken frames,
  /// so a test that calls it (after closing its clients) is leak-clean
  /// under ASan.
  void DrainShutdown() {
    cluster_->Shutdown();
    sim_.RunFor(Seconds(2));
  }

  sim::Simulator sim_;
  CostModel cost_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<tcpnet::Network> tcpnet_;
  std::unique_ptr<kafka::Cluster> cluster_;
  net::NodeId client_node_ = 0;
};

/// Produces `n` records of `size` bytes synchronously.
inline sim::Co<void> RdmaProduceN(RdmaProducer* producer, int n, size_t size,
                                  std::vector<int64_t>* offsets,
                                  bool* done = nullptr) {
  std::string value(size, 'r');
  for (int i = 0; i < n; i++) {
    auto off = co_await producer->Produce(Slice("k", 1), Slice(value));
    KD_CHECK(off.ok()) << off.status().ToString();
    offsets->push_back(off.value());
  }
  if (done != nullptr) *done = true;
}

}  // namespace kd
}  // namespace kafkadirect
