// FlightRecorder: an always-on, allocation-free ring of the last N datapath
// events — the black box the invariant monitor dumps when something goes
// wrong mid-run.
//
// Design:
//   - One fixed-size power-of-two ring, sized once at Configure() time;
//     recording never allocates, never branches on ring fullness (old
//     events are overwritten), and costs a handful of stores: a flat slot
//     array indexed by a monotonically increasing head masked to the
//     capacity.
//   - Events are PODs: virtual timestamp, an event type, and three payload
//     words whose meaning is per-type (qp_num/opcode/bytes for verbs,
//     qp/grant/LEO for credits, ...).
//   - Every caller records at the simulator's current time, so the ring
//     is already in time order; dumps write it oldest to newest as
//     Chrome-trace JSON (instant events) — byte-identical across runs of
//     the same deterministic schedule.
//
// Compile-time kill switch: building with -DKD_NO_FLIGHT_RECORDER turns
// Record() into an empty inline so the ≤3% overhead budget can be measured
// against a recorder-free binary (bench/simcore_gbench BM_FlightRecorder*).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace kafkadirect {
namespace obs {

enum class FlightEventType : uint8_t {
  kVerbPosted = 1,   // a=qp_num, b=opcode, c=bytes
  kNotification = 2, // a=slot/grant id, b=kind, c=readable/pushed bytes
  kCreditGrant = 3,  // a=qp_num, b=credits granted, c=follower LEO
  kIsrUpdate = 4,    // a=broker id, b=follower id, c=follower offset
  kHwmAdvance = 5,   // a=broker id, b=partition, c=new high watermark
  kCommit = 6,       // a=file id, b=bytes committed, c=new commit pos
  kRingPush = 7,     // a=grant ref, b=chunk bytes, c=total pushed
  kRnr = 8,          // a=qp_num, b=opcode, c=0
  kViolation = 9,    // a=watcher index, b=0, c=0
};

const char* FlightEventTypeName(FlightEventType type);

struct FlightEvent {
  int64_t ts_ns = 0;
  uint64_t c = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  FlightEventType type = FlightEventType::kVerbPosted;
};

class FlightRecorder {
 public:
  static constexpr uint32_t kDefaultCapacity = 4096;

  FlightRecorder() { Configure(kDefaultCapacity); }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// (Re)sizes the ring to `capacity` events (rounded up to a power of
  /// two). Allocates; call once at setup, never on the datapath. Existing
  /// events are discarded.
  void Configure(uint32_t capacity);

  static constexpr bool compiled_in() {
#ifdef KD_NO_FLIGHT_RECORDER
    return false;
#else
    return true;
#endif
  }

  void set_enabled(bool on) { enabled_ = on && compiled_in(); }
  bool enabled() const { return enabled_; }

  /// The few-stores hot path.
  void Record(int64_t ts_ns, FlightEventType type, uint32_t a, uint32_t b,
              uint64_t c) {
#ifndef KD_NO_FLIGHT_RECORDER
    if (!enabled_) return;
    FlightEvent& e = slots_[head_ & mask_];
    e.ts_ns = ts_ns;
    e.c = c;
    e.a = a;
    e.b = b;
    e.type = type;
    head_++;
#else
    (void)ts_ns, (void)type, (void)a, (void)b, (void)c;
#endif
  }

  uint32_t capacity() const { return static_cast<uint32_t>(slots_.size()); }
  /// Total events ever recorded / overwritten before a dump.
  uint64_t recorded() const { return head_; }
  uint64_t dropped() const {
    return head_ > slots_.size() ? head_ - slots_.size() : 0;
  }

  /// Oldest-to-newest snapshot of the surviving events.
  std::vector<FlightEvent> Snapshot() const;

  /// Chrome-trace JSON (instant events) of Snapshot(). Deterministic for a
  /// deterministic schedule.
  void WriteChromeTrace(std::ostream& os) const;
  bool WriteChromeTraceFile(const std::string& path) const;

 private:
  std::vector<FlightEvent> slots_;
  uint64_t head_ = 0;
  uint32_t mask_ = 0;
  bool enabled_ = compiled_in();
};

}  // namespace obs
}  // namespace kafkadirect
