// Little-endian fixed-width encode/decode helpers plus a bounds-checked
// binary reader/writer used by the Kafka wire protocol and record format.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace kafkadirect {

inline void EncodeFixed16(uint8_t* dst, uint16_t v) {
  dst[0] = static_cast<uint8_t>(v);
  dst[1] = static_cast<uint8_t>(v >> 8);
}

inline void EncodeFixed32(uint8_t* dst, uint32_t v) {
  dst[0] = static_cast<uint8_t>(v);
  dst[1] = static_cast<uint8_t>(v >> 8);
  dst[2] = static_cast<uint8_t>(v >> 16);
  dst[3] = static_cast<uint8_t>(v >> 24);
}

inline void EncodeFixed64(uint8_t* dst, uint64_t v) {
  for (int i = 0; i < 8; i++) dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint16_t DecodeFixed16(const uint8_t* src) {
  return static_cast<uint16_t>(src[0]) |
         static_cast<uint16_t>(static_cast<uint16_t>(src[1]) << 8);
}

inline uint32_t DecodeFixed32(const uint8_t* src) {
  return static_cast<uint32_t>(src[0]) |
         (static_cast<uint32_t>(src[1]) << 8) |
         (static_cast<uint32_t>(src[2]) << 16) |
         (static_cast<uint32_t>(src[3]) << 24);
}

inline uint64_t DecodeFixed64(const uint8_t* src) {
  uint64_t v = 0;
  for (int i = 0; i < 8; i++) v |= static_cast<uint64_t>(src[i]) << (8 * i);
  return v;
}

/// Append-only binary writer over a growable byte vector.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  explicit BinaryWriter(size_t reserve) { buf_.reserve(reserve); }

  /// Writes into `reuse` (cleared first), typically a pooled buffer whose
  /// capacity survives from a previous message of similar size.
  BinaryWriter(std::vector<uint8_t> reuse, size_t reserve)
      : buf_(std::move(reuse)) {
    buf_.clear();
    buf_.reserve(reserve);
  }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) {
    size_t n = buf_.size();
    buf_.resize(n + 2);
    EncodeFixed16(&buf_[n], v);
  }
  void PutU32(uint32_t v) {
    size_t n = buf_.size();
    buf_.resize(n + 4);
    EncodeFixed32(&buf_[n], v);
  }
  void PutU64(uint64_t v) {
    size_t n = buf_.size();
    buf_.resize(n + 8);
    EncodeFixed64(&buf_[n], v);
  }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  /// Length-prefixed (u32) byte string.
  void PutBytes(Slice s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s);
  }
  void PutString(const std::string& s) { PutBytes(Slice(s)); }

  /// Raw bytes, no length prefix.
  void PutRaw(Slice s) {
    buf_.insert(buf_.end(), s.data(), s.data() + s.size());
  }

  /// Overwrites 4 bytes at an absolute position (for back-patching lengths).
  void PatchU32(size_t pos, uint32_t v) { EncodeFixed32(&buf_[pos], v); }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked sequential reader over a Slice.
class BinaryReader {
 public:
  explicit BinaryReader(Slice data) : data_(data) {}

  Status GetU8(uint8_t* out) {
    KD_RETURN_IF_ERROR(Need(1));
    *out = data_[pos_];
    pos_ += 1;
    return Status::OK();
  }
  Status GetU16(uint16_t* out) {
    KD_RETURN_IF_ERROR(Need(2));
    *out = DecodeFixed16(data_.data() + pos_);
    pos_ += 2;
    return Status::OK();
  }
  Status GetU32(uint32_t* out) {
    KD_RETURN_IF_ERROR(Need(4));
    *out = DecodeFixed32(data_.data() + pos_);
    pos_ += 4;
    return Status::OK();
  }
  Status GetU64(uint64_t* out) {
    KD_RETURN_IF_ERROR(Need(8));
    *out = DecodeFixed64(data_.data() + pos_);
    pos_ += 8;
    return Status::OK();
  }
  Status GetI32(int32_t* out) {
    uint32_t v;
    KD_RETURN_IF_ERROR(GetU32(&v));
    *out = static_cast<int32_t>(v);
    return Status::OK();
  }
  Status GetI64(int64_t* out) {
    uint64_t v;
    KD_RETURN_IF_ERROR(GetU64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }

  /// Length-prefixed byte string; returns a view into the underlying data.
  Status GetBytes(Slice* out) {
    uint32_t len = 0;
    KD_RETURN_IF_ERROR(GetU32(&len));
    KD_RETURN_IF_ERROR(Need(len));
    *out = data_.SubSlice(pos_, len);
    pos_ += len;
    return Status::OK();
  }
  Status GetString(std::string* out) {
    Slice s;
    KD_RETURN_IF_ERROR(GetBytes(&s));
    *out = s.ToString();
    return Status::OK();
  }
  /// Raw bytes of a known length; returns a view.
  Status GetRaw(size_t len, Slice* out) {
    KD_RETURN_IF_ERROR(Need(len));
    *out = data_.SubSlice(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n) {
    if (pos_ + n > data_.size()) {
      return Status::OutOfRange("binary reader: truncated input");
    }
    return Status::OK();
  }

  Slice data_;
  size_t pos_ = 0;
};

}  // namespace kafkadirect
