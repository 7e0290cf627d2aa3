#include "kafka/log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "kafka/record.h"

namespace kafkadirect {
namespace kafka {
namespace {

std::vector<uint8_t> Batch(int64_t base, int n_records, size_t value_size) {
  RecordBatchBuilder b(base, 0, 0);
  std::string v(value_size, 'a');
  for (int i = 0; i < n_records; i++) b.Add(Slice("k", 1), Slice(v));
  return b.Build();
}

TEST(SegmentTest, AppendAdvancesStateAndIndexes) {
  Segment seg(0, 4096);
  auto b1 = Batch(0, 2, 10);
  ASSERT_TRUE(seg.Append(Slice(b1), 2).ok());
  EXPECT_EQ(seg.size(), b1.size());
  EXPECT_EQ(seg.next_offset(), 2);
  auto b2 = Batch(2, 3, 10);
  ASSERT_TRUE(seg.Append(Slice(b2), 3).ok());
  EXPECT_EQ(seg.next_offset(), 5);
  EXPECT_EQ(seg.batch_count(), 2u);
  EXPECT_EQ(seg.PositionOf(0).value(), 0u);
  EXPECT_EQ(seg.PositionOf(1).value(), 0u);   // inside batch 1
  EXPECT_EQ(seg.PositionOf(2).value(), b1.size());
  EXPECT_EQ(seg.PositionOf(4).value(), b1.size());
  EXPECT_FALSE(seg.PositionOf(5).ok());
  EXPECT_FALSE(seg.PositionOf(-1).ok());
}

TEST(SegmentTest, FullSegmentRejectsAppend) {
  Segment seg(0, 128);
  auto big = Batch(0, 1, 200);
  EXPECT_TRUE(seg.Append(Slice(big), 1).IsResourceExhausted());
}

TEST(SegmentTest, SealedSegmentRejectsAppend) {
  Segment seg(0, 4096);
  seg.Seal();
  auto b = Batch(0, 1, 8);
  EXPECT_FALSE(seg.Append(Slice(b), 1).ok());
}

TEST(SegmentTest, CommitInPlaceRequiresContiguity) {
  Segment seg(0, 4096);
  auto b = Batch(0, 1, 8);
  std::memcpy(seg.data() + 100, b.data(), b.size());  // RDMA wrote at 100
  EXPECT_FALSE(seg.CommitInPlace(100, b.size(), 1).ok());  // gap!
  std::memcpy(seg.data(), b.data(), b.size());
  EXPECT_TRUE(seg.CommitInPlace(0, b.size(), 1).ok());
  EXPECT_EQ(seg.size(), b.size());
  EXPECT_EQ(seg.next_offset(), 1);
}

// Segments are demand-zero (DESIGN.md §8): whatever memory a segment
// reuses, every byte past the committed prefix reads as zero, before and
// after appends, at a test size and at the paper's 64 MiB file size.
TEST(SegmentTest, BytesBeyondSizeReadAsZero) {
  for (uint64_t capacity : {uint64_t{4096}, uint64_t{64} << 20}) {
    {
      Segment used(0, capacity);  // garbage a later segment may reuse
      std::memset(used.data(), 0xAB, capacity);
    }
    Segment seg(0, capacity);
    auto tail_is_zero = [&seg] {
      return std::all_of(seg.data() + seg.size(),
                         seg.data() + seg.capacity(),
                         [](uint8_t b) { return b == 0; });
    };
    EXPECT_EQ(seg.capacity(), capacity);
    EXPECT_TRUE(tail_is_zero()) << "capacity " << capacity;
    for (int i = 0; i < 3; i++) {
      auto b = Batch(seg.next_offset(), 2, 100);
      ASSERT_TRUE(seg.Append(Slice(b), 2).ok());
    }
    EXPECT_GT(seg.size(), 0u);
    EXPECT_TRUE(tail_is_zero()) << "capacity " << capacity;
  }
}

TEST(PartitionLogTest, AppendAndRead) {
  PartitionLog log(1 << 20);
  for (int i = 0; i < 10; i++) {
    auto b = Batch(i, 1, 100);  // offsets pre-assigned, like replication
    ASSERT_TRUE(log.Append(Slice(b), 1).ok());
  }
  EXPECT_EQ(log.log_end_offset(), 10);
  log.SetHighWatermark(10);
  auto data = log.Read(0, 1 << 20, 10).value();
  // Parse all returned batches.
  Slice rest(data);
  int batches = 0;
  while (!rest.empty()) {
    auto view = RecordBatchView::Parse(rest).value();
    EXPECT_EQ(view.base_offset(), batches);
    rest.RemovePrefix(view.total_size());
    batches++;
  }
  EXPECT_EQ(batches, 10);
}

TEST(PartitionLogTest, ReadRespectsHighWatermark) {
  PartitionLog log(1 << 20);
  for (int i = 0; i < 5; i++) {
    auto b = Batch(i, 1, 10);
    ASSERT_TRUE(log.Append(Slice(b), 1).ok());
  }
  log.SetHighWatermark(3);
  auto data = log.Read(0, 1 << 20, log.high_watermark()).value();
  Slice rest(data);
  int count = 0;
  while (!rest.empty()) {
    auto view = RecordBatchView::Parse(rest).value();
    rest.RemovePrefix(view.total_size());
    count++;
  }
  EXPECT_EQ(count, 3);  // offsets 3,4 are not yet replicated
  // Reading exactly at the HWM returns nothing.
  EXPECT_TRUE(log.Read(3, 1 << 20, 3).value().empty());
}

TEST(PartitionLogTest, RollsWhenHeadFills) {
  PartitionLog log(512);
  int appended = 0;
  while (log.segments().size() < 3) {
    auto b = Batch(0, 1, 100);
    ASSERT_TRUE(log.Append(Slice(b), 1).ok());
    appended++;
    ASSERT_LT(appended, 100);
  }
  EXPECT_TRUE(log.segments()[0]->sealed());
  EXPECT_TRUE(log.segments()[1]->sealed());
  EXPECT_FALSE(log.head().sealed());
  // Offsets remain contiguous across segments.
  EXPECT_EQ(log.segments()[1]->base_offset(),
            log.segments()[0]->next_offset());
  EXPECT_EQ(log.log_end_offset(), appended);
}

TEST(PartitionLogTest, ReadSpansSegments) {
  PartitionLog log(512);
  int appended = 0;
  for (int i = 0; i < 12; i++) {
    auto b = Batch(i, 1, 100);
    ASSERT_TRUE(log.Append(Slice(b), 1).ok());
    appended++;
  }
  ASSERT_GT(log.segments().size(), 1u);
  log.SetHighWatermark(appended);
  auto data = log.Read(0, 1 << 20, appended).value();
  Slice rest(data);
  int64_t expect = 0;
  while (!rest.empty()) {
    auto view = RecordBatchView::Parse(rest).value();
    EXPECT_EQ(view.base_offset(), expect);
    expect = view.last_offset() + 1;
    rest.RemovePrefix(view.total_size());
  }
  EXPECT_EQ(expect, appended);
}

TEST(PartitionLogTest, ReadHonorsMaxBytesButMakesProgress) {
  PartitionLog log(1 << 20);
  auto b = Batch(0, 1, 1000);
  for (int i = 0; i < 5; i++) ASSERT_TRUE(log.Append(Slice(b), 1).ok());
  log.SetHighWatermark(5);
  // max_bytes smaller than one batch still returns one batch.
  auto data = log.Read(0, 10, 5).value();
  auto view = RecordBatchView::Parse(Slice(data)).value();
  EXPECT_EQ(view.base_offset(), 0);
  EXPECT_EQ(data.size(), view.total_size());
}

TEST(PartitionLogTest, OutOfRangeOffsetFails) {
  PartitionLog log(1 << 20);
  auto b = Batch(0, 1, 10);
  ASSERT_TRUE(log.Append(Slice(b), 1).ok());
  log.SetHighWatermark(1);
  EXPECT_FALSE(log.Read(-1, 1024, 1).ok());
  EXPECT_FALSE(log.Read(100, 1024, 200).ok());
  // Reading exactly at the limit is legal and empty.
  EXPECT_TRUE(log.Read(1, 1024, 1).value().empty());
}

TEST(PartitionLogTest, SegmentForFindsCorrectFile) {
  PartitionLog log(512);
  for (int i = 0; i < 12; i++) {
    auto b = Batch(0, 1, 100);
    ASSERT_TRUE(log.Append(Slice(b), 1).ok());
  }
  for (int64_t off = 0; off < log.log_end_offset(); off++) {
    Segment* seg = log.SegmentFor(off);
    ASSERT_NE(seg, nullptr);
    EXPECT_GE(off, seg->base_offset());
    EXPECT_LT(off, seg->next_offset());
  }
  EXPECT_EQ(log.SegmentFor(log.log_end_offset()), nullptr);
}

TEST(PartitionLogTest, HwmNeverMovesBackward) {
  PartitionLog log(1 << 20);
  log.SetHighWatermark(10);
  log.SetHighWatermark(5);
  EXPECT_EQ(log.high_watermark(), 10);
}

}  // namespace
}  // namespace kafka
}  // namespace kafkadirect
