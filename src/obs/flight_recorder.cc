#include "obs/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>

namespace kafkadirect {
namespace obs {

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kVerbPosted: return "verb_posted";
    case FlightEventType::kNotification: return "notification";
    case FlightEventType::kCreditGrant: return "credit_grant";
    case FlightEventType::kIsrUpdate: return "isr_update";
    case FlightEventType::kHwmAdvance: return "hwm_advance";
    case FlightEventType::kCommit: return "commit";
    case FlightEventType::kRingPush: return "ring_push";
    case FlightEventType::kRnr: return "rnr";
    case FlightEventType::kViolation: return "violation";
  }
  return "unknown";
}

void FlightRecorder::Configure(uint32_t capacity) {
  if (capacity < 2) capacity = 2;
  capacity = std::bit_ceil(capacity);
  slots_.assign(capacity, FlightEvent{});
  mask_ = capacity - 1;
  head_ = 0;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  const uint64_t n = std::min<uint64_t>(head_, slots_.size());
  std::vector<FlightEvent> out;
  out.reserve(n);
  for (uint64_t i = head_ - n; i < head_; i++) {
    out.push_back(slots_[i & mask_]);
  }
  return out;
}

namespace {
void AppendTs(std::ostream& os, int64_t ns) {
  // Chrome expects microseconds; keep ns precision with 3 decimals.
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  os << buf;
}
}  // namespace

void FlightRecorder::WriteChromeTrace(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    os << (first ? "" : ",\n");
    first = false;
  };
  sep();
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"args\": {\"name\": \"flight-recorder\"}}";
  sep();
  os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": 1, \"args\": {\"name\": \"datapath\"}}";
  for (const FlightEvent& e : Snapshot()) {
    sep();
    os << "{\"name\": \"" << FlightEventTypeName(e.type)
       << "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ";
    AppendTs(os, e.ts_ns);
    os << ", \"pid\": 1, \"tid\": 1, \"args\": {\"a\": " << e.a
       << ", \"b\": " << e.b << ", \"c\": " << e.c << "}}";
  }
  os << "\n]}\n";
}

bool FlightRecorder::WriteChromeTraceFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  WriteChromeTrace(out);
  return out.good();
}

}  // namespace obs
}  // namespace kafkadirect
