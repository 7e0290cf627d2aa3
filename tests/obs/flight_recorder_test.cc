#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <sstream>

namespace kafkadirect {
namespace obs {
namespace {

TEST(FlightRecorderTest, DefaultsToOneShardDefaultCapacity) {
  FlightRecorder fr;
  EXPECT_EQ(fr.capacity(), FlightRecorder::kDefaultCapacity);
  EXPECT_TRUE(fr.enabled());
  EXPECT_TRUE(FlightRecorder::compiled_in());
  EXPECT_EQ(fr.recorded(), 0u);
  EXPECT_EQ(fr.dropped(), 0u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder fr;
  fr.Configure(100);
  EXPECT_EQ(fr.capacity(), 128u);
  fr.Configure(256);
  EXPECT_EQ(fr.capacity(), 256u);
}

TEST(FlightRecorderTest, SnapshotIsOldestToNewest) {
  FlightRecorder fr;
  fr.Configure(8);
  for (int i = 0; i < 5; i++) {
    fr.Record(100 * i, FlightEventType::kVerbPosted, i, 0, 0);
  }
  std::vector<FlightEvent> snap = fr.Snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(snap[i].ts_ns, 100 * i);
    EXPECT_EQ(snap[i].a, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(fr.recorded(), 5u);
  EXPECT_EQ(fr.dropped(), 0u);
}

TEST(FlightRecorderTest, RingOverwritesOldestAndCountsDropped) {
  FlightRecorder fr;
  fr.Configure(8);
  for (int i = 0; i < 20; i++) {
    fr.Record(i, FlightEventType::kCommit, i, 0, 0);
  }
  std::vector<FlightEvent> snap = fr.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // The surviving window is the last 8 events, in order.
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(snap[i].a, static_cast<uint32_t>(12 + i));
  }
  EXPECT_EQ(fr.recorded(), 20u);
  EXPECT_EQ(fr.dropped(), 12u);
}

TEST(FlightRecorderTest, DisabledRecordsNothing) {
  FlightRecorder fr;
  fr.set_enabled(false);
  fr.Record(1, FlightEventType::kVerbPosted, 1, 2, 3);
  EXPECT_EQ(fr.recorded(), 0u);
  fr.set_enabled(true);
  fr.Record(2, FlightEventType::kVerbPosted, 1, 2, 3);
  EXPECT_EQ(fr.recorded(), 1u);
}

TEST(FlightRecorderTest, SameTimestampSameShardPreservesRingOrder) {
  FlightRecorder fr;
  fr.Configure(16);
  for (int i = 0; i < 6; i++) {
    fr.Record(777, FlightEventType::kCreditGrant, i, 0, 0);
  }
  std::vector<FlightEvent> snap = fr.Snapshot();
  ASSERT_EQ(snap.size(), 6u);
  for (int i = 0; i < 6; i++) EXPECT_EQ(snap[i].a, static_cast<uint32_t>(i));
}

TEST(FlightRecorderTest, ChromeTraceIsDeterministic) {
  auto fill = [](FlightRecorder& fr) {
    fr.Configure(8);
    fr.Record(1000, FlightEventType::kVerbPosted, 3, 1, 4096);
    fr.Record(1500, FlightEventType::kCreditGrant, 5, 12, 900);
    fr.Record(2000, FlightEventType::kHwmAdvance, 0, 0, 42);
  };
  FlightRecorder a, b;
  fill(a);
  fill(b);
  std::ostringstream osa, osb;
  a.WriteChromeTrace(osa);
  b.WriteChromeTrace(osb);
  EXPECT_EQ(osa.str(), osb.str());
  const std::string json = osa.str();
  // Chrome-trace shape: traceEvents array, process metadata, instant
  // events with microsecond timestamps and the payload words.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("flight-recorder"), std::string::npos);
  EXPECT_NE(json.find("\"verb_posted\""), std::string::npos);
  EXPECT_NE(json.find("\"credit_grant\""), std::string::npos);
  EXPECT_NE(json.find("\"hwm_advance\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST(FlightRecorderTest, EventTypeNamesAreStable) {
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kVerbPosted),
               "verb_posted");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kNotification),
               "notification");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kCreditGrant),
               "credit_grant");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kIsrUpdate),
               "isr_update");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kHwmAdvance),
               "hwm_advance");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kCommit), "commit");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kRingPush), "ring_push");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kRnr), "rnr");
  EXPECT_STREQ(FlightEventTypeName(FlightEventType::kViolation), "violation");
}

TEST(FlightRecorderTest, ReconfigureDiscardsEvents) {
  FlightRecorder fr;
  fr.Configure(8);
  fr.Record(1, FlightEventType::kVerbPosted, 1, 0, 0);
  fr.Configure(8);
  EXPECT_EQ(fr.recorded(), 0u);
  EXPECT_TRUE(fr.Snapshot().empty());
}

}  // namespace
}  // namespace obs
}  // namespace kafkadirect
