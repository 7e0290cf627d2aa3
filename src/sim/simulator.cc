#include "sim/simulator.h"

#include "common/logging.h"
#include "sim/sharded.h"

namespace kafkadirect {
namespace sim {

EventId Simulator::ScheduleAt(TimeNs time, InlineFunction fn) {
  KD_DCHECK(fn);  // an empty callable would read as cancelled
  if (time < now_) time = now_;
  const uint32_t slot = AcquireSlot(std::move(fn));
  const uint64_t index = static_cast<uint64_t>(time - wheel_base_);
  if (index < kWheelSize) {
    AppendToBucket(static_cast<size_t>(index), slot);
  } else {
    slots_[slot].next = kInHeap;
    overflow_.push_back(Entry{time, next_seq_, slot});
    SiftUp(overflow_.size() - 1);
  }
  next_seq_++;
  if (++pending_ > pending_peak_) pending_peak_ = pending_;
  return EventId{slot, slots_[slot].gen};
}

bool Simulator::Cancel(EventId id) {
  if (id.slot >= slots_.size() || slots_[id.slot].gen != id.gen) {
    return false;
  }
  Slot& s = slots_[id.slot];
  s.gen++;
  pending_--;
  // The entry stays queued, dead, until it reaches the front or a
  // compaction. The callable dies on return, after the bookkeeping, as
  // its captures' destructors may re-enter the simulator.
  InlineFunction fn = std::move(s.fn);
  if (s.next != kInHeap) {
    dead_wheel_++;
  } else if (2 * ++dead_heap_ >= overflow_.size()) {
    CompactHeap();
  }
  return true;
}

void Simulator::CompactHeap() {
  size_t n = 0;
  for (const Entry& e : overflow_) {
    if (Dead(e.slot)) {
      free_slots_.push_back(e.slot);
    } else {
      overflow_[n++] = e;
    }
  }
  overflow_.resize(n);
  dead_heap_ = 0;
  if (n < 2) return;
  for (size_t i = (n - 2) / kHeapArity + 1; i-- > 0;) {
    SiftDown(i, overflow_[i]);
  }
}

size_t Simulator::PurgeFront() {
  while (wheel_count_ != 0) {
    const size_t i = FindBucket(cursor_);
    if (!Dead(bucket_head_[i])) return i;
    free_slots_.push_back(PopBucketHead(i));
    dead_wheel_--;
  }
  while (Dead(overflow_.front().slot)) {
    free_slots_.push_back(PopOverflowTop().slot);
    dead_heap_--;
  }
  return kWheelSize;
}

void Simulator::Refill() {
  KD_DCHECK(wheel_count_ == 0 && !overflow_.empty());
  wheel_base_ = overflow_.front().time;
  cursor_ = 0;
  const TimeNs end = wheel_base_ + static_cast<TimeNs>(kWheelSize);
  while (!overflow_.empty() && overflow_.front().time < end) {
    const Entry e = PopOverflowTop();
    if (Dead(e.slot)) {
      free_slots_.push_back(e.slot);
      dead_heap_--;
    } else {
      AppendToBucket(static_cast<size_t>(e.time - wheel_base_), e.slot);
    }
  }
}

void Simulator::Run() {
  stopped_ = false;
  while (!Idle() && !stopped_) {
    const auto [time, slot] = PopFront(Front());
    KD_DCHECK(time >= now_);
    now_ = time;
    events_processed_++;
    InlineFunction fn = TakeFn(slot);
    fn();
  }
}

void Simulator::RunUntilDone(const std::function<bool()>& done,
                             TimeNs deadline) {
  stopped_ = false;
  while (!done() && !Idle() && !stopped_) {
    const size_t i = Front();
    if (FrontTime(i) > deadline) break;
    const auto [time, slot] = PopFront(i);
    now_ = time;
    events_processed_++;
    InlineFunction fn = TakeFn(slot);
    fn();
  }
}

bool Simulator::ExecuteNextBefore(TimeNs horizon) {
  if (stopped_ || Idle()) return false;
  const size_t i = Front();
  if (FrontTime(i) >= horizon) return false;
  const auto [time, slot] = PopFront(i);
  KD_DCHECK(time >= now_);
  now_ = time;
  events_processed_++;
  InlineFunction fn = TakeFn(slot);
  fn();
  return true;
}

void Simulator::ScheduleCross(uint32_t dst_shard, TimeNs delay,
                              InlineFunction fn) {
  KD_CHECK(engine_ != nullptr)
      << "ScheduleCross on a standalone simulator (no owning engine)";
  engine_->CrossSend(shard_id_, dst_shard, delay, std::move(fn));
}

void Simulator::RunUntil(TimeNs time) {
  stopped_ = false;
  while (!Idle() && !stopped_) {
    const size_t i = Front();
    if (FrontTime(i) > time) break;
    const auto [time_now, slot] = PopFront(i);
    now_ = time_now;
    events_processed_++;
    InlineFunction fn = TakeFn(slot);
    fn();
  }
  if (!stopped_ && now_ < time) now_ = time;
}

}  // namespace sim
}  // namespace kafkadirect
