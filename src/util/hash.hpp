// Word-wise streaming hash: the genome content hash an index is keyed on
// (genome::content_hash, genome::summarize_source) and the .cofidx payload
// checksum (core/index.cpp).
#pragma once

#include <bit>
#include <cstring>
#include <string_view>

#include "util/common.hpp"

namespace util {

/// Streaming 64-bit hash of a byte sequence, eight bytes per step. Each
/// little-endian word is xored into the state, multiplied by an odd constant
/// and folded (h ^= h >> 32), so a word's bits reach every state bit within
/// two steps; digest() mixes in the pending partial word and the byte count
/// and runs murmur3's fmix64 finaliser. Each step is a bijection of the
/// state for a fixed word and of the word for a fixed state, so changing any
/// one word changes the digest. A partial word carries across feed() calls:
/// a sequence fed in pieces of any size has the digest of feeding it whole.
class word_hash {
 public:
  void feed(std::string_view s) {
    usize i = 0;
    usize have = static_cast<usize>(count_ % 8);
    count_ += s.size();
    if (have != 0) {
      for (; i < s.size() && have < 8; ++i, ++have) {
        pending_ |= u64{static_cast<u8>(s[i])} << (8 * have);
      }
      if (have < 8) return;
      step(pending_);
      pending_ = 0;
    }
    for (; s.size() - i >= 8; i += 8) {
      u64 w;
      std::memcpy(&w, s.data() + i, 8);
      if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
      step(w);
    }
    for (usize k = 0; i < s.size(); ++i, ++k) {
      pending_ |= u64{static_cast<u8>(s[i])} << (8 * k);
    }
  }
  void feed(char c) { feed(std::string_view(&c, 1)); }

  u64 digest() const {
    word_hash f = *this;
    if (count_ % 8 != 0) f.step(pending_);
    u64 h = f.h_ ^ count_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

 private:
  void step(u64 w) {
    h_ = (h_ ^ w) * 0x9e3779b97f4a7c15ULL;
    h_ ^= h_ >> 32;
  }

  u64 h_ = 0x243f6a8885a308d3ULL;
  u64 pending_ = 0;  // the bytes fed since the last full word, little-endian
  u64 count_ = 0;    // bytes fed in all
};

}  // namespace util
