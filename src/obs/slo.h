// SloTracker: per-(topic, tenant) delivery-delay and goodput accounting.
//
// Tenancy rides the existing Kafka v2 batch header: every producer already
// stamps its producer_id and a produce-time timestamp into each batch
// (src/kafka/protocol.*), so consumers can attribute every delivered record
// to a tenant and compute its delivery delay (consume virtual time minus
// produce virtual time) with no wire-format change. The harness assigns
// producer_id = tenant id (workload index + 1; 0 = untagged/preload
// traffic, which is still tracked but reported under tenant 0).
//
// Consumers call Get() once per parsed batch (one map lookup) and then
// Observe() per record (histogram Add + a few adds) — allocation only on
// first sight of a (topic, tenant) pair, in keeping with the PR 1
// allocation-free hot-path contract.
//
// The JSON report (--slo_json) emits per-tenant p50/p99/p999 delivery
// delay, goodput over the tenant's own [first, last] delivery window, and
// a per-topic Jain fairness index over tenant goodputs.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace kafkadirect {
namespace obs {

/// One (topic, tenant)'s accumulated delivery statistics.
struct TenantSlo {
  LogLinearHistogram delay;  // delivery delay, ns
  uint64_t records = 0;
  uint64_t bytes = 0;  // key + value payload bytes delivered
  int64_t first_ns = 0;
  int64_t last_ns = 0;

  void Observe(int64_t delay_ns, uint64_t payload_bytes, int64_t now_ns) {
    delay.Add(delay_ns);
    if (records == 0) first_ns = now_ns;
    last_ns = now_ns;
    records++;
    bytes += payload_bytes;
  }

  /// Goodput over this tenant's own delivery window; 0 when the window is
  /// empty (fewer than two distinct delivery instants).
  double GoodputMiBps() const;
};

class SloTracker {
 public:
  using Key = std::pair<std::string, uint64_t>;  // (topic, tenant)

  /// Find-or-create; the returned pointer is stable for the tracker's
  /// lifetime, so consumers cache it per batch.
  TenantSlo* Get(const std::string& topic, uint64_t tenant);
  const TenantSlo* Find(const std::string& topic, uint64_t tenant) const;

  bool empty() const { return tenants_.empty(); }
  size_t num_tenants() const { return tenants_.size(); }
  uint64_t total_records() const;

  /// Deterministic (topic, tenant)-sorted iteration.
  template <typename Fn>  // Fn(const std::string& topic, uint64_t tenant,
                          //    const TenantSlo&)
  void ForEach(Fn&& fn) const {
    for (const auto& [key, t] : tenants_) fn(key.first, key.second, t);
  }

  /// Jain fairness index (sum x)^2 / (n * sum x^2) in [1/n, 1]; 1.0 for an
  /// empty or all-zero vector (vacuously fair).
  static double JainIndex(const std::vector<double>& xs);

  /// {"topics": {topic: {"jain_fairness": .., "tenants": {id: {...}}}},
  ///  "total_records": N} — keys sorted, deterministic.
  void WriteJson(std::ostream& os) const;
  bool WriteJsonFile(const std::string& path) const;

 private:
  // std::map keeps report order deterministic and pointers stable.
  std::map<Key, TenantSlo> tenants_;
};

}  // namespace obs
}  // namespace kafkadirect
