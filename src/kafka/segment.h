// Segment: one log file of a topic partition. Preallocated at creation
// (the paper enables Kafka file preallocation so RNICs can write into the
// region) and backed by memory, standing in for the paper's tmpfs files.
// Like a fresh tmpfs file the memory is demand-zero: all of it reads as
// zeros, but the host backs a page only once something writes to it. The
// address and capacity, and so the MR registered over them, cover the
// whole file from the start.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/slice.h"
#include "common/status.h"

namespace kafkadirect {
namespace kafka {

class Segment {
 public:
  /// `base_offset`: Kafka offset of the first record this file will hold.
  Segment(int64_t base_offset, uint64_t capacity)
      : base_offset_(base_offset), next_offset_(base_offset),
        capacity_(capacity),
        // Large callocs come straight from fresh anonymous mappings, which
        // the kernel zero-fills page by page on first touch.
        buf_(static_cast<uint8_t*>(std::calloc(capacity, 1))) {
    KD_CHECK(buf_ != nullptr || capacity == 0)
        << "segment allocation of " << capacity << " bytes failed";
  }

  int64_t base_offset() const { return base_offset_; }
  /// Offset the next appended record will receive.
  int64_t next_offset() const { return next_offset_; }
  uint64_t capacity() const { return capacity_; }
  /// Bytes of committed data (valid prefix of the file).
  uint64_t size() const { return size_; }
  uint64_t remaining() const { return capacity() - size_; }
  bool sealed() const { return sealed_; }

  uint8_t* data() { return buf_.get(); }
  const uint8_t* data() const { return buf_.get(); }

  /// Appends a serialized batch covering `record_count` offsets. Fails when
  /// full or sealed.
  Status Append(Slice batch, uint32_t record_count);

  /// Commits `len` bytes already present at position `pos` (written there
  /// by an RDMA producer or the push-replication module). `pos` must equal
  /// the current size — the log never has gaps.
  Status CommitInPlace(uint64_t pos, uint64_t len, uint32_t record_count);

  /// Marks the file immutable (it becomes a non-head file, Fig. 1).
  void Seal() { sealed_ = true; }

  /// File position of the batch containing `offset`, via the offset index.
  StatusOr<uint64_t> PositionOf(int64_t offset) const;

  /// Number of indexed batches (one entry per committed batch).
  size_t batch_count() const { return index_.size(); }

 private:
  struct IndexEntry {
    int64_t offset;  // base offset of the batch
    uint64_t pos;    // file position of the batch
  };
  struct Free {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  int64_t base_offset_;
  int64_t next_offset_;
  uint64_t size_ = 0;
  bool sealed_ = false;
  uint64_t capacity_;
  std::unique_ptr<uint8_t[], Free> buf_;
  std::vector<IndexEntry> index_;
};

}  // namespace kafka
}  // namespace kafkadirect
