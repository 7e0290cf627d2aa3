#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"

namespace kafkadirect {
namespace sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(300, [&]() { order.push_back(3); });
  sim.Schedule(100, [&]() { order.push_back(1); });
  sim.Schedule(200, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 300);
}

TEST(SimulatorTest, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.Schedule(50, [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; i++) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedSchedulingAdvancesClock) {
  Simulator sim;
  TimeNs inner_time = -1;
  sim.Schedule(10, [&]() {
    sim.Schedule(5, [&]() { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_time, 15);
}

TEST(SimulatorTest, ScheduleInPastClampsToNow) {
  Simulator sim;
  TimeNs fired_at = -1;
  sim.Schedule(100, [&]() {
    sim.ScheduleAt(5, [&]() { fired_at = sim.Now(); });  // in the past
  });
  sim.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&]() { fired++; });
  sim.Schedule(200, [&]() { fired++; });
  sim.RunUntil(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 150);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(100);
  EXPECT_EQ(sim.Now(), 100);
  sim.RunFor(50);
  EXPECT_EQ(sim.Now(), 150);
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&]() {
    fired++;
    sim.Stop();
  });
  sim.Schedule(20, [&]() { fired++; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CountsEvents) {
  Simulator sim;
  for (int i = 0; i < 5; i++) sim.Schedule(i, []() {});
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorTest, CancelledEventNeverRunsAndIsNotCounted) {
  Simulator sim;
  int ran = 0;
  auto capture = std::make_shared<int>(0);
  sim.Schedule(10, [&ran] { ran += 1; });
  const EventId near = sim.Schedule(20, [&ran, capture] { ran += 10; });
  // Beyond the timing wheel's window: parked in the overflow heap.
  const EventId far = sim.Schedule(5000, [&ran, capture] { ran += 100; });
  EXPECT_EQ(capture.use_count(), 3);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.Cancel(near));
  EXPECT_TRUE(sim.Cancel(far));
  EXPECT_EQ(capture.use_count(), 1);  // captures destroyed at once
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.pending_events_peak(), 3u);
  sim.Run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.Now(), 10);  // a cancelled event does not move the clock
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, StaleEventIdsAreInert) {
  Simulator sim;
  int runs = 0;
  EXPECT_FALSE(sim.Cancel(EventId{}));
  const EventId ran = sim.Schedule(1, [&runs] { runs++; });
  sim.Run();
  EXPECT_FALSE(sim.Cancel(ran));  // already ran
  const EventId cancelled = sim.Schedule(1, [&runs] { runs += 100; });
  ASSERT_EQ(cancelled.slot, ran.slot);  // the arena handed the slot out again
  EXPECT_FALSE(sim.Cancel(ran));
  EXPECT_TRUE(sim.Cancel(cancelled));
  EXPECT_FALSE(sim.Cancel(cancelled));  // already cancelled
  sim.Schedule(2, [&runs] { runs++; });  // purges the dead entry on its way
  sim.Run();
  // The cancelled event's slot, purged and handed out again, ignores the
  // old id too.
  const EventId a = sim.Schedule(1, [&runs] { runs++; });
  const EventId b = sim.Schedule(1, [&runs] { runs++; });
  ASSERT_TRUE(a.slot == cancelled.slot || b.slot == cancelled.slot);
  EXPECT_FALSE(sim.Cancel(cancelled));
  // A running event cannot cancel itself.
  EventId self;
  self = sim.Schedule(1, [&] { EXPECT_FALSE(sim.Cancel(self)); });
  sim.Run();
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorTest, TiesKeepFifoOrderAroundCancelledEvents) {
  // One timestamp inside the timing wheel, one in the overflow heap.
  for (TimeNs at : {TimeNs{50}, TimeNs{5000}}) {
    Simulator sim;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 12; i++) {
      ids.push_back(sim.Schedule(at, [&, i] {
        order.push_back(i);
        // An event cancels a later one in its own bucket.
        if (i == 1) {
          EXPECT_TRUE(sim.Cancel(ids[9]));
        }
      }));
    }
    for (int i : {0, 3, 6, 11}) EXPECT_TRUE(sim.Cancel(ids[i]));
    sim.Schedule(at, [&order] { order.push_back(12); });
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 12}))
        << "at " << at;
    EXPECT_EQ(sim.events_processed(), 8u);
  }
}

TEST(SimulatorTest, CancelledFrontDoesNotHideLaterSchedules) {
  Simulator sim;
  std::vector<int> order;
  const EventId dead = sim.Schedule(100, [&order] { order.push_back(-1); });
  sim.Schedule(200, [&order] { order.push_back(2); });
  EXPECT_TRUE(sim.Cancel(dead));
  sim.RunUntil(150);  // purges the dead front without running anything
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(sim.Now(), 150);
  sim.Schedule(10, [&order] { order.push_back(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// The dispatcher the timing wheel replaced: a std::priority_queue over
// (time, seq). Cancelled entries are dropped as they surface.
class ReferenceQueue {
 public:
  uint64_t Schedule(TimeNs delay, int id) {
    queue_.push(Entry{now_ + delay, seq_, id});
    return seq_++;
  }
  void Cancel(uint64_t seq) { cancelled_.insert(seq); }
  bool Pop(TimeNs* time, int* id) {
    while (!queue_.empty()) {
      const Entry e = queue_.top();
      queue_.pop();
      if (cancelled_.count(e.seq) != 0) continue;
      now_ = *time = e.time;
      *id = e.id;
      return true;
    }
    return false;
  }

 private:
  struct Entry {
    TimeNs time;
    uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::set<uint64_t> cancelled_;
  TimeNs now_ = 0;
  uint64_t seq_ = 0;
};

// One firing's decisions, drawn identically by both drivers below as long
// as both pop the same events in the same order: up to two children, half
// inside the wheel window and half far beyond it, and on every other
// firing the cancellation of one of the last 64 events scheduled (which
// may already have run or been cancelled: then it is a stale id).
struct Firing {
  std::vector<TimeNs> child_delays;
  int cancel = -1;
};

constexpr size_t kRefEvents = 20000;
constexpr int kRefRoots = 2000;

Firing Decide(Random& rng, size_t scheduled) {
  Firing f;
  const int kids = scheduled < kRefEvents ? static_cast<int>(rng.Uniform(3))
                                          : 0;
  for (int k = 0; k < kids; k++) {
    f.child_delays.push_back(static_cast<TimeNs>(
        rng.OneIn(2) ? rng.Uniform(1024) : 1024 + rng.Uniform(100000)));
  }
  if (rng.OneIn(2)) {
    const size_t window = std::min<size_t>(64, scheduled);
    f.cancel = static_cast<int>(scheduled - 1 - rng.Uniform(window));
  }
  return f;
}

TimeNs RootDelay(Random& rng) {
  return static_cast<TimeNs>(rng.OneIn(2) ? rng.Uniform(1000)
                                          : 1024 + rng.Uniform(200000));
}

TEST(SimulatorTest, CancellingWorkloadPopsInReferenceOrder) {
  using Trace = std::vector<std::pair<TimeNs, int>>;
  struct SimDriver {
    Simulator sim;
    Random rng{2024};
    std::vector<EventId> ids;
    Trace trace;
    uint64_t cancelled = 0;
    void Add(TimeNs delay) {
      const int k = static_cast<int>(ids.size());
      ids.push_back(sim.Schedule(delay, [this, k] { Fire(k); }));
    }
    void Cancel(int k) { cancelled += sim.Cancel(ids[k]) ? 1 : 0; }
    void Fire(int k) {
      trace.emplace_back(sim.Now(), k);
      const Firing f = Decide(rng, ids.size());
      for (TimeNs d : f.child_delays) Add(d);
      if (f.cancel >= 0) Cancel(f.cancel);
    }
  } s;
  struct RefDriver {
    ReferenceQueue queue;
    Random rng{2024};
    std::vector<uint64_t> seqs;
    Trace trace;
    void Add(TimeNs delay) {
      seqs.push_back(queue.Schedule(delay, static_cast<int>(seqs.size())));
    }
    void Run() {
      TimeNs t;
      int k;
      while (queue.Pop(&t, &k)) {
        trace.emplace_back(t, k);
        const Firing f = Decide(rng, seqs.size());
        for (TimeNs d : f.child_delays) Add(d);
        if (f.cancel >= 0) queue.Cancel(seqs[f.cancel]);
      }
    }
  } r;

  // Roots, about half of them in the overflow heap; then cancel ~60% of
  // all roots, which forces at least one heap compaction.
  Random sim_roots(7);
  Random ref_roots(7);
  size_t heap_roots = 0;
  for (int i = 0; i < kRefRoots; i++) {
    const TimeNs d = RootDelay(sim_roots);
    heap_roots += d >= 1024 ? 1 : 0;
    s.Add(d);
    r.Add(RootDelay(ref_roots));
  }
  ASSERT_EQ(s.sim.heap_entries(), heap_roots);
  for (int i = 0; i < kRefRoots; i++) {
    if (sim_roots.Uniform(10) < 6) s.Cancel(i);
    if (ref_roots.Uniform(10) < 6) r.queue.Cancel(r.seqs[i]);
  }
  EXPECT_EQ(s.sim.pending_events(), uint64_t{kRefRoots} - s.cancelled);
  EXPECT_LT(s.sim.heap_entries(), heap_roots) << "no compaction ran";

  s.sim.Run();
  r.Run();
  ASSERT_EQ(s.trace.size(), r.trace.size());
  EXPECT_TRUE(s.trace == r.trace);
  EXPECT_EQ(s.sim.events_processed(), s.trace.size());
  EXPECT_TRUE(s.sim.Idle());
  // About half of everything scheduled was cancelled before it ran.
  EXPECT_GT(s.cancelled * 10, s.ids.size() * 3);
  EXPECT_LT(s.cancelled * 10, s.ids.size() * 7);
}

}  // namespace
}  // namespace sim
}  // namespace kafkadirect
