// Latency histogram with exact percentiles (stores samples; benches use
// bounded sample counts so memory stays small).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace kafkadirect {

/// Collects int64 samples (typically nanoseconds) and reports order
/// statistics. Every sample is kept, so percentiles are exact. Not
/// thread-safe; the simulator is single-threaded.
class Histogram {
 public:
  void Add(int64_t v) {
    if (total_ == 0 || v < min_) min_ = v;
    if (total_ == 0 || v > max_) max_ = v;
    sum_ += static_cast<long double>(v);
    total_++;
    samples_.push_back(v);
    sorted_ = false;
  }

  /// Total number of Add() calls.
  size_t count() const { return static_cast<size_t>(total_); }
  bool empty() const { return total_ == 0; }

  int64_t Min() const { return total_ == 0 ? 0 : min_; }
  int64_t Max() const { return total_ == 0 ? 0 : max_; }
  double Mean() const {
    return total_ == 0
               ? 0.0
               : static_cast<double>(sum_ / static_cast<long double>(total_));
  }
  /// p in [0, 100]; nearest-rank percentile over the samples. Returns 0 on
  /// empty.
  int64_t Percentile(double p) const;
  int64_t Median() const { return Percentile(50.0); }

  void Clear() {
    samples_.clear();
    sorted_ = false;
    total_ = 0;
    min_ = 0;
    max_ = 0;
    sum_ = 0;
  }

  /// One-line summary "count=.. min=.. p50=.. p99=.. max=.." in microseconds
  /// (input assumed nanoseconds).
  std::string SummaryUs() const;

  /// Stored samples (unsorted order unspecified); used to merge histograms.
  const std::vector<int64_t>& samples() const { return samples_; }
  /// Combines running stats and appends the other's stored samples.
  void Merge(const Histogram& other) {
    if (other.total_ == 0) return;
    if (total_ == 0 || other.min_ < min_) min_ = other.min_;
    if (total_ == 0 || other.max_ > max_) max_ = other.max_;
    sum_ += other.sum_;
    total_ += other.total_;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

 private:
  void Sort() const;

  mutable std::vector<int64_t> samples_;
  mutable bool sorted_ = false;
  uint64_t total_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  long double sum_ = 0;
};

}  // namespace kafkadirect
