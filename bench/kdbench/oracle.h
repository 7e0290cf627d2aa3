// Record stamps and the delivery oracle.
//
// The generator stamps the first kStampBytes of every record value with
// (tenant, seq, due_ns, checksum) and fills the rest from a seeded pool;
// the consumer side hands every delivered value back to the Oracle, which
// checks that each tenant's records arrive exactly once, in order, and
// intact. Nothing about the stamp is visible to the program under test: it
// is ordinary value bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_order.h"
#include "common/crc32c.h"
#include "common/random.h"

namespace kafkadirect {
namespace kdbench {

/// tenant u32 | seq u64 | due_ns i64 | crc32c(value[kStampBytes:]) u32.
constexpr size_t kStampBytes = 24;

struct Stamp {
  uint32_t tenant = 0;
  uint64_t seq = 0;
  int64_t due_ns = 0;
};

/// Seeded filler: record bodies are slices of one pool at offsets derived
/// from (tenant, seq), so every record's bytes differ without paying a PRNG
/// call per byte.
class Filler {
 public:
  explicit Filler(uint64_t seed) : pool_(kPoolBytes, '\0') {
    Random rng(seed ^ 0x6b646265u);
    for (size_t i = 0; i < pool_.size(); i += 8) {
      EncodeFixed64(reinterpret_cast<uint8_t*>(&pool_[i]), rng.Next());
    }
  }

  /// A `size`-byte value (size >= kStampBytes) stamped with `s`; `body`
  /// replaces the filler when non-empty (it must fit).
  std::string Make(const Stamp& s, size_t size,
                   const std::string& body = {}) const {
    std::string v(kStampBytes, '\0');
    if (body.empty()) {
      size_t n = size - kStampBytes;
      size_t off = ((s.seq * 0x9E3779B97F4A7C15ull) ^ s.tenant) %
                   (pool_.size() - n);
      v.append(pool_, off, n);
    } else {
      v += body;
    }
    auto* p = reinterpret_cast<uint8_t*>(v.data());
    EncodeFixed32(p, s.tenant);
    EncodeFixed64(p + 4, s.seq);
    EncodeFixed64(p + 12, static_cast<uint64_t>(s.due_ns));
    EncodeFixed32(p + 20,
                  crc32c::Value(p + kStampBytes, v.size() - kStampBytes));
    return v;
  }

 private:
  static constexpr size_t kPoolBytes = 1 << 16;
  std::string pool_;
};

/// Exactly-once / in-order / integrity checker over every tenant's stream.
class Oracle {
 public:
  enum class Verdict { kOk, kCorrupt, kDuplicate, kReordered };

  /// Declares tenants [0, tenants); seq numbers are dense from 0.
  explicit Oracle(uint32_t tenants) : streams_(tenants) {}

  /// The generator calls this once per record it hands to a producer.
  void Sent(uint32_t tenant) { streams_[tenant].sent++; }
  /// The producer call for (tenant, seq) returned an error: the record is
  /// not owed to the consumer.
  void Failed(uint32_t tenant, uint64_t seq) {
    Stream& st = streams_[tenant];
    if (st.failed.size() <= seq) st.failed.resize(seq + 1, false);
    st.failed[seq] = true;
  }

  /// Checks one delivered value; `*stamp` is filled when it decodes.
  Verdict Deliver(const std::string& value, Stamp* stamp) {
    if (value.size() < kStampBytes) return Count(Verdict::kCorrupt);
    const auto* p = reinterpret_cast<const uint8_t*>(value.data());
    stamp->tenant = DecodeFixed32(p);
    stamp->seq = DecodeFixed64(p + 4);
    stamp->due_ns = static_cast<int64_t>(DecodeFixed64(p + 12));
    uint32_t crc = crc32c::Value(p + kStampBytes, value.size() - kStampBytes);
    if (crc != DecodeFixed32(p + 20) || stamp->tenant >= streams_.size() ||
        stamp->seq >= streams_[stamp->tenant].sent) {
      return Count(Verdict::kCorrupt);
    }
    Stream& st = streams_[stamp->tenant];
    if (st.seen.size() <= stamp->seq) st.seen.resize(stamp->seq + 1, false);
    if (st.seen[stamp->seq]) return Count(Verdict::kDuplicate);
    st.seen[stamp->seq] = true;
    st.delivered++;
    bool late = st.delivered > 1 && stamp->seq < st.max_seq;
    if (st.delivered == 1 || stamp->seq > st.max_seq) st.max_seq = stamp->seq;
    return Count(late ? Verdict::kReordered : Verdict::kOk);
  }

  /// Records acknowledged-or-pending but never delivered.
  uint64_t Lost() const {
    uint64_t lost = 0;
    for (const Stream& st : streams_) {
      for (uint64_t s = 0; s < st.sent; s++) {
        bool seen = s < st.seen.size() && st.seen[s];
        bool failed = s < st.failed.size() && st.failed[s];
        if (!seen && !failed) lost++;
      }
    }
    return lost;
  }

  uint64_t corrupted() const { return corrupted_; }
  uint64_t duplicated() const { return duplicated_; }
  uint64_t reordered() const { return reordered_; }
  uint64_t delivered() const { return delivered_ok_ + reordered_; }

 private:
  struct Stream {
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t max_seq = 0;
    std::vector<bool> seen;
    std::vector<bool> failed;
  };

  Verdict Count(Verdict v) {
    switch (v) {
      case Verdict::kOk: delivered_ok_++; break;
      case Verdict::kCorrupt: corrupted_++; break;
      case Verdict::kDuplicate: duplicated_++; break;
      case Verdict::kReordered: reordered_++; break;
    }
    return v;
  }

  std::vector<Stream> streams_;
  uint64_t delivered_ok_ = 0;
  uint64_t corrupted_ = 0;
  uint64_t duplicated_ = 0;
  uint64_t reordered_ = 0;
};

}  // namespace kdbench
}  // namespace kafkadirect
