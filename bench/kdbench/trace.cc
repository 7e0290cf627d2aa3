// Trace outputs of a traced run.
//
// The SpanTracer exports Chrome trace_event JSON with one event per line.
// This pass streams that export once: it relabels kdbench's client.*
// async spans with their record id ("t<tenant>.<seq>") so a record's spans
// group together in Perfetto, and it folds every span into per-name count,
// total and self time. Self time is a span's duration minus the part of it
// covered by the synchronous spans nested inside it on the same track.
// Async spans have no children (kdbench puts a record's overlapping
// client spans on separate tracks), so their self time is their total.
#include <cstdio>
#include <fstream>

#include "workload.h"

namespace kafkadirect {
namespace kdbench {
namespace {

struct Event {
  char phase = 0;
  std::string name;
  int64_t ts_ns = 0;
  uint64_t track = 0;  // pid << 32 | tid
  uint64_t id = 0;
  size_t id_pos = std::string::npos;  // where the id digits start
  size_t id_len = 0;
};

/// Extracts the value after `"key": ` (quoted values without quotes).
bool Field(const std::string& line, const char* key, std::string* out,
           size_t* pos = nullptr) {
  std::string needle = std::string("\"") + key + "\": ";
  size_t p = line.find(needle);
  if (p == std::string::npos) return false;
  p += needle.size();
  bool quoted = line[p] == '"';
  if (quoted) p++;
  size_t e = quoted ? line.find('"', p) : line.find_first_of(",}", p);
  *out = line.substr(p, e - p);
  if (pos != nullptr) *pos = p;
  return true;
}

bool Parse(const std::string& line, Event* ev) {
  std::string v;
  if (!Field(line, "ph", &v) || v.size() != 1) return false;
  ev->phase = v[0];
  if (ev->phase == 'M') return false;
  ev->name.clear();
  Field(line, "name", &ev->name);
  std::string ts, pid, tid;
  if (!Field(line, "ts", &ts) || !Field(line, "pid", &pid) ||
      !Field(line, "tid", &tid)) {
    return false;
  }
  // Timestamps are microseconds with three decimals: exact nanoseconds.
  size_t dot = ts.find('.');
  ev->ts_ns = std::stoll(ts.substr(0, dot)) * 1000 +
              (dot == std::string::npos ? 0 : std::stoll(ts.substr(dot + 1)));
  ev->track = std::stoull(pid) << 32 | std::stoull(tid);
  ev->id_pos = std::string::npos;
  if (Field(line, "id", &v, &ev->id_pos)) {
    ev->id = std::stoull(v);
    ev->id_len = v.size();
  }
  return true;
}

struct Agg {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::vector<int64_t> durations;  // kept for rdma.* only
};

std::string Json(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

bool WriteTraceOutputs(const obs::SpanTracer& tracer,
                       const ClientSpans& spans, const Options& opt,
                       Result* r) {
  const std::string base = opt.trace_dir + "/" + opt.workload;
  const std::string raw_path = base + ".trace.raw.json";
  if (!tracer.WriteChromeTraceFile(raw_path)) return false;
  std::ifstream in(raw_path);
  std::ofstream out(base + ".trace.json");
  if (!in.is_open() || !out.is_open()) return false;

  std::map<std::string, Agg> agg;
  // Open synchronous spans per track: (name, start, child-covered ns).
  struct Open {
    std::string name;
    int64_t start;
    int64_t covered;
  };
  std::map<uint64_t, std::vector<Open>> stacks;
  std::unordered_map<uint64_t, std::pair<std::string, int64_t>> open_async;
  uint64_t events = 0;
  std::string line;
  Event ev;
  while (std::getline(in, line)) {
    if (!Parse(line, &ev)) {
      out << line << "\n";
      continue;
    }
    events++;
    auto rec = ev.id_pos == std::string::npos ? spans.record_of.end()
                                              : spans.record_of.find(ev.id);
    if (rec != spans.record_of.end()) {
      std::string label = "\"t" + std::to_string(rec->second.first) + "." +
                          std::to_string(rec->second.second) + "\"";
      line.replace(ev.id_pos, ev.id_len, label);
    }
    out << line << "\n";
    switch (ev.phase) {
      case 'B':
        stacks[ev.track].push_back(Open{ev.name, ev.ts_ns, 0});
        break;
      case 'E': {
        std::vector<Open>& st = stacks[ev.track];
        if (st.empty()) break;
        Open o = st.back();
        st.pop_back();
        int64_t dur = ev.ts_ns - o.start;
        Agg& a = agg[o.name];
        a.count++;
        a.total_ns += dur;
        a.self_ns += dur - o.covered;
        if (!st.empty()) st.back().covered += dur;
        break;
      }
      case 'b':
        open_async[ev.id] = {ev.name, ev.ts_ns};
        break;
      case 'e': {
        auto it = open_async.find(ev.id);
        if (it == open_async.end()) break;
        int64_t dur = ev.ts_ns - it->second.second;
        Agg& a = agg[it->second.first];
        a.count++;
        a.total_ns += dur;
        a.self_ns += dur;
        if (it->second.first.rfind("rdma.", 0) == 0) a.durations.push_back(dur);
        open_async.erase(it);
        break;
      }
      default:
        break;
    }
  }
  in.close();
  std::remove(raw_path.c_str());

  std::ofstream lj(base + ".layers.json");
  if (!lj.is_open()) return false;
  lj << "{\n  \"workload\": \"" << opt.workload << "\",\n  \"seed\": "
     << opt.seed << ",\n  \"trace_events\": " << events
     << ",\n  \"spans\": {\n";
  bool first = true;
  for (const auto& [name, a] : agg) {
    lj << (first ? "" : ",\n") << "    \"" << name << "\": {\"count\": "
       << a.count << ", \"total_us\": " << Json(a.total_ns / 1000.0)
       << ", \"self_us\": " << Json(a.self_ns / 1000.0) << "}";
    first = false;
  }
  lj << "\n  },\n  \"derived\": {\n";

  auto total_us = [&](const char* name) {
    auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.total_ns / 1000.0;
  };
  double recs = static_cast<double>(std::max<uint64_t>(r->delivered, 1));
  std::vector<Metric> derived = {
      {"kafka.log_append_us_per_rec", total_us("log.append") / recs, "us"},
      {"kafka.queue_wait_us_per_rec", total_us("queue.wait") / recs, "us"},
      {"obs.trace_events", static_cast<double>(events), "count"}};
  const std::pair<const char*, const char*> verbs[] = {
      {"rdma.Write", "rdma.write_us_p50"},
      {"rdma.WriteWithImm", "rdma.write_imm_us_p50"},
      {"rdma.Read", "rdma.read_us_p50"},
      {"rdma.Send", "rdma.send_us_p50"},
      {"rdma.FetchAdd", "rdma.fetch_add_us_p50"}};
  for (const auto& [span, metric] : verbs) {
    auto it = agg.find(span);
    Metric m{metric, 0, "us"};
    if (it != agg.end() && !it->second.durations.empty()) {
      std::vector<int64_t>& d = it->second.durations;
      std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
      m.value = d[d.size() / 2] / 1000.0;
      m.samples = d.size();
    }
    derived.push_back(m);
  }
  first = true;
  for (const Metric& m : derived) {
    lj << (first ? "" : ",\n") << "    \"" << m.name << "\": "
       << Json(m.value);
    first = false;
    r->span_layers.push_back(m);
  }
  lj << "\n  }\n}\n";
  return out.good() && lj.good();
}

}  // namespace kdbench
}  // namespace kafkadirect
