#include "obs/slo.h"

#include <cstdio>
#include <fstream>

namespace kafkadirect {
namespace obs {

double TenantSlo::GoodputMiBps() const {
  int64_t window_ns = last_ns - first_ns;
  if (window_ns <= 0) return 0.0;
  double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  return mib / (static_cast<double>(window_ns) / 1e9);
}

TenantSlo* SloTracker::Get(const std::string& topic, uint64_t tenant) {
  return &tenants_[Key(topic, tenant)];
}

const TenantSlo* SloTracker::Find(const std::string& topic,
                                  uint64_t tenant) const {
  auto it = tenants_.find(Key(topic, tenant));
  return it == tenants_.end() ? nullptr : &it->second;
}

uint64_t SloTracker::total_records() const {
  uint64_t n = 0;
  for (const auto& [key, t] : tenants_) n += t.records;
  return n;
}

double SloTracker::JainIndex(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

namespace {
void AppendDouble(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  os << buf;
}
}  // namespace

void SloTracker::WriteJson(std::ostream& os) const {
  os << "{\n  \"topics\": {";
  bool first_topic = true;
  auto it = tenants_.begin();
  while (it != tenants_.end()) {
    const std::string& topic = it->first.first;
    // One contiguous map range per topic (keys sort by topic first).
    auto end = it;
    while (end != tenants_.end() && end->first.first == topic) ++end;

    // Fairness over tenant goodputs; when every window is degenerate
    // (single delivery instant) fall back to delivered bytes so the index
    // still reflects the share split.
    std::vector<double> xs;
    bool any_goodput = false;
    for (auto t = it; t != end; ++t) {
      if (t->second.GoodputMiBps() > 0.0) any_goodput = true;
    }
    for (auto t = it; t != end; ++t) {
      xs.push_back(any_goodput ? t->second.GoodputMiBps()
                               : static_cast<double>(t->second.bytes));
    }

    os << (first_topic ? "\n    " : ",\n    ");
    first_topic = false;
    os << "\"" << topic << "\": {\n      \"jain_fairness\": ";
    AppendDouble(os, JainIndex(xs));
    os << ",\n      \"tenants\": {";
    bool first_tenant = true;
    for (auto t = it; t != end; ++t) {
      const TenantSlo& s = t->second;
      os << (first_tenant ? "\n        " : ",\n        ");
      first_tenant = false;
      os << "\"" << t->first.second << "\": {\"records\": " << s.records
         << ", \"bytes\": " << s.bytes << ", \"first_ns\": " << s.first_ns
         << ", \"last_ns\": " << s.last_ns << ", \"goodput_mib_s\": ";
      AppendDouble(os, s.GoodputMiBps());
      os << ", \"delay_ns\": {\"count\": " << s.delay.count()
         << ", \"min\": " << s.delay.min() << ", \"max\": " << s.delay.max()
         << ", \"mean\": ";
      AppendDouble(os, s.delay.Mean());
      os << ", \"p50\": " << s.delay.Percentile(50)
         << ", \"p99\": " << s.delay.Percentile(99)
         << ", \"p999\": " << s.delay.Percentile(99.9) << "}}";
    }
    os << (first_tenant ? "" : "\n      ") << "}\n    }";
    it = end;
  }
  os << (first_topic ? "" : "\n  ") << "},\n  \"total_records\": "
     << total_records() << "\n}\n";
}

bool SloTracker::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  WriteJson(out);
  return out.good();
}

}  // namespace obs
}  // namespace kafkadirect
