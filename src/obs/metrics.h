// MetricsRegistry: allocation-light named counters, gauges, and log-linear
// histograms.
//
// Design contract (ISSUE 3 tentpole): registration happens once per name and
// may allocate; every subsequent update is an O(1) operation on a stable
// pointer with no allocation, so PR 1's allocation-free hot-path guarantees
// hold. The simulator is single-threaded, so no locking is needed.
//
// Histograms use HdrHistogram-style log-linear buckets: 32 linear
// sub-buckets per power-of-two octave, giving a worst-case relative error
// of 1/32 (~3%) at every magnitude with a fixed ~15 KB footprint.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

namespace kafkadirect {
namespace obs {

/// Monotonically increasing count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Instantaneous level; tracks its high-water mark.
class Gauge {
 public:
  void Set(int64_t v) {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  void Add(int64_t delta) { Set(value_ + delta); }
  int64_t value() const { return value_; }
  int64_t high_water() const { return high_water_; }

 private:
  int64_t value_ = 0;
  int64_t high_water_ = 0;
};

/// Fixed-bucket log-linear histogram of non-negative int64 values
/// (typically nanoseconds). Values < 0 clamp to 0.
class LogLinearHistogram {
 public:
  static constexpr int kSubBucketBits = 5;                 // 32 per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 32
  // Values 0..31 index directly; octaves cover bit widths 6..63.
  static constexpr int kOctaves = 64 - kSubBucketBits - 1;  // 58
  static constexpr int kNumBuckets = kSubBuckets * (1 + kOctaves);

  void Add(int64_t v);

  uint64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// p in [0, 100]. Returns the upper bound of the bucket containing the
  /// nearest-rank sample, so the result is >= the exact percentile and
  /// within one bucket width (<= 1/32 relative error) of it.
  int64_t Percentile(double p) const;

  /// Adds every sample of `other` into this histogram. Because buckets are
  /// position-aligned, merging is exactly equivalent to having Add()ed
  /// every sample into one histogram (kdbench sums the per-broker
  /// histograms this way; see metrics_test.cc MergeEqualsSingle).
  void Merge(const LogLinearHistogram& other);

  /// Bucket math, exposed for the registry-vs-exact cross-check test.
  static int BucketIndex(int64_t v);
  static int64_t BucketLowerBound(int index);
  static int64_t BucketUpperBound(int index);

 private:
  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  int64_t sum_ = 0;
};

/// Name -> instrument map. Find-or-create returns stable pointers: the
/// registry never destroys an instrument once handed out.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LogLinearHistogram* GetHistogram(const std::string& name);

  /// Lookup without creation; nullptr when the name was never registered.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const LogLinearHistogram* FindHistogram(const std::string& name) const;

  /// JSON snapshot, keys sorted by name:
  /// {"counters":{..},"gauges":{..},"histograms":{..}}
  void WriteJson(std::ostream& os) const;
  bool WriteJsonFile(const std::string& path) const;

  size_t num_instruments() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Deterministic (name-sorted) iteration over registered instruments.
  /// The live monitor's watchers use these to evaluate predicates over
  /// whole metric families (e.g. byte conservation across all brokers)
  /// without hard-coding broker ids.
  template <typename Fn>  // Fn(const std::string&, const Counter&)
  void ForEachCounter(Fn&& fn) const {
    for (const auto& [name, c] : counters_) fn(name, *c);
  }
  template <typename Fn>  // Fn(const std::string&, const Gauge&)
  void ForEachGauge(Fn&& fn) const {
    for (const auto& [name, g] : gauges_) fn(name, *g);
  }
  template <typename Fn>  // Fn(const std::string&, const LogLinearHistogram&)
  void ForEachHistogram(Fn&& fn) const {
    for (const auto& [name, h] : histograms_) fn(name, *h);
  }

  /// Sum of all counters whose name starts with `prefix` and ends with
  /// `suffix` (either may be empty). Convenience for conservation watchers.
  uint64_t SumCounters(const std::string& prefix,
                       const std::string& suffix) const;

 private:
  // std::map keeps export order deterministic and pointers stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogLinearHistogram>> histograms_;
};

}  // namespace obs
}  // namespace kafkadirect
