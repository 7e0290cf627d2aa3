// Deterministic discrete-event simulator with a virtual nanosecond clock.
//
// All concurrency in this codebase (broker threads, client dispatchers, RNIC
// engines) is expressed as coroutines scheduled on one Simulator instance.
// Events at equal timestamps fire in schedule order (FIFO by sequence
// number), which makes every run bit-reproducible.
//
// The hot path is allocation-free and mostly comparison-free. Callables are
// stored in an InlineFunction (small-buffer optimised, 48 bytes inline)
// parked in a stable slot arena. Events within the next kWheelSize
// nanoseconds go into a timing wheel: one bucket per nanosecond, each an
// intrusive FIFO list threaded through the slot arena, with an occupancy
// bitmap scanned by count-trailing-zeros to find the next event in O(1).
// Events beyond the window land in an overflow 4-ary min-heap of 24-byte
// POD keys and are decanted into the wheel — in (time, seq) order — only
// when the wheel is completely empty.
//
// Pop order equals the global (time, seq) minimum at every step: wheel
// buckets each hold exactly one timestamp and are appended in seq order
// (overflow refills happen before any later-scheduled push can target the
// window), and (time, seq) is a strict total order. The pop sequence is
// therefore exactly what the original std::priority_queue implementation
// produced.
//
// Cancel() destroys an event's callable at once and leaves a dead entry in
// its bucket or heap position; dead entries are skipped when they reach
// the front, and the heap is compacted once half of it is dead. Neither
// touches the (time, seq) keys of live events, so live events pop in the
// same order as if the cancelled ones had never been scheduled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/logging.h"

namespace kafkadirect {
namespace sim {

/// Virtual time in nanoseconds since simulation start.
using TimeNs = int64_t;

/// Names one scheduled event, for Simulator::Cancel. A default-constructed
/// id names no event. Once the event has run or been cancelled the id is
/// stale, and cancelling it does nothing.
struct EventId {
  uint32_t slot = UINT32_MAX;
  uint32_t gen = 0;
};

class Simulator {
 public:
  Simulator() {
    std::memset(bucket_head_, 0xFF, sizeof(bucket_head_));  // all kNil
    overflow_.reserve(kInitialEventCapacity);
    slots_.reserve(kInitialEventCapacity);
    free_slots_.reserve(kInitialEventCapacity);
    // KD_LOG lines carry this simulator's virtual timestamp while it lives.
    SetLogClock(
        [](const void* ctx) {
          return static_cast<const Simulator*>(ctx)->Now();
        },
        this);
  }
  ~Simulator() { ClearLogClock(this); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimeNs Now() const { return now_; }

  /// Runs `fn` after `delay` nanoseconds of virtual time (>= 0).
  EventId Schedule(TimeNs delay, InlineFunction fn) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Runs `fn` at absolute virtual time `time` (clamped to now).
  EventId ScheduleAt(TimeNs time, InlineFunction fn);

  /// Cancels a pending event: its callable and captures are destroyed
  /// now, and it never runs nor counts in events_processed(). Returns
  /// false and does nothing if `id` is stale or default.
  bool Cancel(EventId id);

  /// Processes events until the queue is empty or Stop() is called.
  void Run();

  /// Processes events with timestamps <= `time`; leaves Now() == `time`
  /// if the queue drained earlier.
  void RunUntil(TimeNs time);

  /// RunUntil(Now() + duration).
  void RunFor(TimeNs duration) { RunUntil(now_ + duration); }

  /// Processes events until `done()` returns true (checked after each
  /// event), the queue drains, or `deadline` passes. The standard driver
  /// for workloads with background activity (replica fetchers, pollers)
  /// that never lets the event queue drain on its own.
  void RunUntilDone(const std::function<bool()>& done, TimeNs deadline);

  /// Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  /// True if no events are pending.
  bool Idle() const { return pending_ == 0; }

  /// Total events processed (for tests and sanity limits).
  uint64_t events_processed() const { return events_processed_; }

  /// Events scheduled and neither run nor cancelled yet, and the most
  /// that were ever pending at once.
  uint64_t pending_events() const { return pending_; }
  uint64_t pending_events_peak() const { return pending_peak_; }

  /// Overflow-heap entries, cancelled ones not yet purged included (for
  /// tests).
  size_t heap_entries() const { return overflow_.size(); }

 private:
  // Wheel window width in nanoseconds (one bucket each). Covers the vast
  // majority of scheduling distances (packet hops, CPU costs, zero-delay
  // coroutine resumptions); longer timers take the overflow heap.
  static constexpr size_t kWheelSize = 1024;
  static constexpr size_t kBitmapWords = kWheelSize / 64;
  static constexpr uint32_t kNil = UINT32_MAX;
  // Slot::next of an event parked in the overflow heap.
  static constexpr uint32_t kInHeap = UINT32_MAX - 1;
  // Enough for the steady-state event population of the largest fig*
  // experiments, so the arena and overflow heap never regrow mid-run.
  static constexpr size_t kInitialEventCapacity = 1024;

  /// Arena cell: the parked callable (empty once cancelled), the
  /// intrusive bucket-list link, and the generation that tells a live
  /// EventId from a stale one. The two words sit in the callable's tail
  /// padding, so a slot stays 64 bytes.
  struct Slot {
    [[no_unique_address]] InlineFunction fn;
    uint32_t next = kNil;  // bucket successor, or kInHeap
    uint32_t gen = 0;      // bumped when the event runs or is cancelled
  };
  static_assert(sizeof(Slot) == 64);

  /// Overflow heap key: trivially copyable, so sifts are plain word moves.
  struct Entry {
    TimeNs time;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  /// Strict total order: seq breaks every timestamp tie.
  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  static constexpr size_t kHeapArity = 4;

  uint32_t AcquireSlot(InlineFunction fn) {
    if (free_slots_.empty()) {
      const uint32_t slot = static_cast<uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(fn), kNil, 0});
      return slot;
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].fn = std::move(fn);
    return slot;
  }

  /// Moves the popped event's callable out of the arena and recycles the
  /// slot. The returned InlineFunction must be invoked by the caller (the
  /// arena may regrow while the event runs, so it cannot run in place).
  InlineFunction TakeFn(uint32_t slot) {
    Slot& s = slots_[slot];
    s.gen++;
    pending_--;
    free_slots_.push_back(slot);
    return std::move(s.fn);
  }

  bool Dead(uint32_t slot) const { return !slots_[slot].fn; }

  void AppendToBucket(size_t index, uint32_t slot) {
    slots_[slot].next = kNil;
    if (bucket_head_[index] == kNil) {
      bucket_head_[index] = slot;
      bitmap_[index >> 6] |= 1ull << (index & 63);
    } else {
      slots_[bucket_tail_[index]].next = slot;
    }
    bucket_tail_[index] = slot;
    wheel_count_++;
  }

  /// Unlinks and returns the head of occupied bucket `i`.
  uint32_t PopBucketHead(size_t i) {
    const uint32_t slot = bucket_head_[i];
    const uint32_t next = slots_[slot].next;
    bucket_head_[i] = next;
    if (next == kNil) bitmap_[i >> 6] &= ~(1ull << (i & 63));
    wheel_count_--;
    return slot;
  }

  /// First occupied bucket at index >= `from`. Requires wheel_count_ > 0.
  size_t FindBucket(size_t from) const {
    size_t w = from >> 6;
    uint64_t word = bitmap_[w] & (~0ull << (from & 63));
    while (word == 0) word = bitmap_[++w];
    return (w << 6) + static_cast<size_t>(__builtin_ctzll(word));
  }

  void SiftUp(size_t i) {
    const Entry v = overflow_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / kHeapArity;
      if (!Earlier(v, overflow_[parent])) break;
      overflow_[i] = overflow_[parent];
      i = parent;
    }
    overflow_[i] = v;
  }

  /// Places `v` at heap position `i` or below, restoring the heap order
  /// of the subtree rooted there.
  void SiftDown(size_t i, const Entry v) {
    const size_t n = overflow_.size();
    for (;;) {
      const size_t first = kHeapArity * i + 1;
      if (first >= n) break;
      const size_t last = std::min(first + kHeapArity, n);
      size_t m = first;
      for (size_t c = first + 1; c < last; c++) {
        if (Earlier(overflow_[c], overflow_[m])) m = c;
      }
      if (!Earlier(overflow_[m], v)) break;
      overflow_[i] = overflow_[m];
      i = m;
    }
    overflow_[i] = v;
  }

  /// Removes and returns the overflow minimum, then re-sifts the displaced
  /// back element down from the root.
  Entry PopOverflowTop() {
    const Entry top = overflow_.front();
    const Entry v = overflow_.back();
    overflow_.pop_back();
    if (!overflow_.empty()) SiftDown(0, v);
    return top;
  }

  /// Drops the dead entries of the heap and rebuilds it (Floyd). Heap
  /// shape never decides pop order, (time, seq) does.
  void CompactHeap();

  /// Re-anchors the window at the overflow minimum and decants every
  /// overflow event inside it, in (time, seq) order. Requires an empty
  /// wheel and a live overflow minimum.
  void Refill();

  /// The first occupied bucket, whose head is live, or kWheelSize when
  /// the wheel is empty and the live front is the heap top. Dead entries
  /// at the front are purged first. Requires !Idle().
  size_t Front() {
    if (wheel_count_ != 0) {
      const size_t i = FindBucket(cursor_);
      if (dead_wheel_ == 0 || !Dead(bucket_head_[i])) return i;
    } else if (dead_heap_ == 0 || !Dead(overflow_.front().slot)) {
      return kWheelSize;
    }
    return PurgeFront();
  }

  /// Front()'s slow path: pops dead entries until a live one leads.
  /// cursor_ stays put, as it must never pass Now().
  size_t PurgeFront();

  /// Timestamp of the front event, given `i = Front()`.
  TimeNs FrontTime(size_t i) const {
    if (i != kWheelSize) return wheel_base_ + static_cast<TimeNs>(i);
    return overflow_.front().time;
  }

  /// Removes the front event, given `i = Front()`; returns its
  /// (time, slot). The run loops peek and pop with one Front() call.
  std::pair<TimeNs, uint32_t> PopFront(size_t i) {
    if (i == kWheelSize) {
      Refill();
      i = 0;  // Refill anchored the window at the minimum
    }
    cursor_ = i;
    return {wheel_base_ + static_cast<TimeNs>(i), PopBucketHead(i)};
  }

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t pending_ = 0;       // live events (not run, not cancelled)
  uint64_t pending_peak_ = 0;
  // Cancelled entries still queued. While both are 0, as in runs that
  // cancel nothing, finding the front touches no slot.
  size_t dead_wheel_ = 0;
  size_t dead_heap_ = 0;
  bool stopped_ = false;

  // Timing wheel over [wheel_base_, wheel_base_ + kWheelSize). Buckets are
  // singly-linked FIFO lists through slots_; bitmap_ tracks occupancy.
  // Invariant whenever user code runs: wheel_base_ <= now_, so new events
  // (clamped to now_) never land below cursor_.
  TimeNs wheel_base_ = 0;
  size_t cursor_ = 0;
  size_t wheel_count_ = 0;
  uint64_t bitmap_[kBitmapWords] = {};
  uint32_t bucket_head_[kWheelSize];
  uint32_t bucket_tail_[kWheelSize];

  std::vector<Entry> overflow_;          // 4-ary min-heap, (time, seq)
  std::vector<Slot> slots_;              // parked callables
  std::vector<uint32_t> free_slots_;     // LIFO: reuse the warmest slot
};

}  // namespace sim
}  // namespace kafkadirect
