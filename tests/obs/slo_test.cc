#include "obs/slo.h"

#include <gtest/gtest.h>

#include <sstream>

namespace kafkadirect {
namespace obs {
namespace {

TEST(TenantSloTest, ObserveAccumulates) {
  TenantSlo t;
  t.Observe(1000, 512, 5000);
  t.Observe(2000, 512, 6000);
  t.Observe(1500, 256, 9000);
  EXPECT_EQ(t.records, 3u);
  EXPECT_EQ(t.bytes, 1280u);
  EXPECT_EQ(t.first_ns, 5000);
  EXPECT_EQ(t.last_ns, 9000);
  EXPECT_EQ(t.delay.count(), 3u);
  EXPECT_EQ(t.delay.min(), 1000);
  EXPECT_EQ(t.delay.max(), 2000);
}

TEST(TenantSloTest, GoodputOverOwnWindow) {
  TenantSlo t;
  // 2 MiB delivered over exactly one second of virtual time.
  t.Observe(10, 1 << 20, 0);
  t.Observe(10, 1 << 20, 1000000000);
  EXPECT_DOUBLE_EQ(t.GoodputMiBps(), 2.0);
}

TEST(TenantSloTest, DegenerateWindowHasZeroGoodput) {
  TenantSlo t;
  EXPECT_EQ(t.GoodputMiBps(), 0.0);
  t.Observe(10, 4096, 42);  // single delivery instant
  EXPECT_EQ(t.GoodputMiBps(), 0.0);
}

TEST(SloTrackerTest, GetReturnsStablePointers) {
  SloTracker slo;
  EXPECT_TRUE(slo.empty());
  TenantSlo* a = slo.Get("topic", 1);
  a->Observe(100, 10, 1);
  for (uint64_t t = 2; t < 50; t++) slo.Get("topic", t);
  slo.Get("other", 1);
  EXPECT_EQ(slo.Get("topic", 1), a);
  EXPECT_EQ(a->records, 1u);
  EXPECT_EQ(slo.num_tenants(), 50u);
  EXPECT_EQ(slo.total_records(), 1u);
}

TEST(SloTrackerTest, FindDoesNotCreate) {
  SloTracker slo;
  EXPECT_EQ(slo.Find("t", 1), nullptr);
  EXPECT_TRUE(slo.empty());
  slo.Get("t", 1)->Observe(5, 1, 1);
  ASSERT_NE(slo.Find("t", 1), nullptr);
  EXPECT_EQ(slo.Find("t", 1)->records, 1u);
  EXPECT_EQ(slo.Find("t", 2), nullptr);
}

TEST(SloTrackerTest, JainIndexBounds) {
  // Perfectly fair: all equal.
  EXPECT_DOUBLE_EQ(SloTracker::JainIndex({5.0, 5.0, 5.0, 5.0}), 1.0);
  // Vacuously fair: empty or all-zero.
  EXPECT_DOUBLE_EQ(SloTracker::JainIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(SloTracker::JainIndex({0.0, 0.0}), 1.0);
  // Maximally unfair: one tenant gets everything -> 1/n.
  EXPECT_DOUBLE_EQ(SloTracker::JainIndex({8.0, 0.0, 0.0, 0.0}), 0.25);
  // Intermediate case stays in (1/n, 1).
  double j = SloTracker::JainIndex({1.0, 2.0, 3.0});
  EXPECT_GT(j, 1.0 / 3.0);
  EXPECT_LT(j, 1.0);
}

TEST(SloTrackerTest, JsonReportShape) {
  SloTracker slo;
  slo.Get("alpha", 1)->Observe(1000, 1 << 20, 0);
  slo.Get("alpha", 1)->Observe(1000, 1 << 20, 1000000000);
  slo.Get("alpha", 2)->Observe(3000, 1 << 20, 0);
  slo.Get("alpha", 2)->Observe(3000, 1 << 20, 1000000000);
  slo.Get("beta", 7)->Observe(500, 128, 42);
  std::ostringstream os;
  slo.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"topics\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"jain_fairness\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"goodput_mib_s\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NE(json.find("\"total_records\": 5"), std::string::npos);
}

TEST(SloTrackerTest, EmptyTrackerStillWritesValidSkeleton) {
  SloTracker slo;
  std::ostringstream os;
  slo.WriteJson(os);
  EXPECT_NE(os.str().find("\"topics\": {}"), std::string::npos);
  EXPECT_NE(os.str().find("\"total_records\": 0"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace kafkadirect
