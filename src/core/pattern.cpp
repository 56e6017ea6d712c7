#include "core/pattern.hpp"

#include "core/config.hpp"
#include "genome/iupac.hpp"

namespace cof {

char normalize_base(char c) {
  c = genome::upper_base(c);
  if (c == 'U') c = 'T';
  return genome::is_iupac(c) ? c : '\0';
}

std::string normalize_sequence(std::string_view seq, std::string_view what) {
  if (seq.empty()) throw config_error("empty " + std::string(what));
  std::string out(seq);
  for (char& c : out) {
    const char n = normalize_base(c);
    if (n == '\0') {
      throw config_error("non-IUPAC character in " + std::string(what) + ": " + c);
    }
    c = n;
  }
  return out;
}

namespace {

device_pattern build(std::string_view raw) {
  device_pattern p;
  p.seq = normalize_sequence(raw);
  p.plen = static_cast<u32>(p.seq.size());
  p.fwrc = p.seq + genome::reverse_complement(p.seq);

  p.mask.resize(p.fwrc.size());
  for (usize k = 0; k < p.fwrc.size(); ++k) {
    p.mask[k] = genome::casoffinder_mismatch_mask(p.fwrc[k]);
  }

  p.index.assign(static_cast<usize>(p.plen) * 2, -1);
  for (int half = 0; half < 2; ++half) {
    usize w = 0;
    for (u32 k = 0; k < p.plen; ++k) {
      if (p.fwrc[half * p.plen + k] != 'N') {
        p.index[half * p.plen + w++] = static_cast<i32>(k);
      }
    }
    // remaining entries stay -1 (terminator + padding)
  }

  // opt6 SWAR masks: for every 32-base word of each half, one deny mask per
  // reference code (and one for ambiguous/'N' references), each read straight
  // out of the deny LUT, so opt6 scores every pair as the IUPAC chain does by
  // construction. Bits sit at even positions to align with the 2-bit packed
  // reference words; bases past plen (the ragged tail) stay 0 = never
  // mismatch, like a pattern 'N'.
  p.swar_words = (p.plen + 31) / 32;
  p.swar.assign(static_cast<usize>(2) * p.swar_words * kSwarMasksPerWord, 0);
  constexpr char kRefChars[kSwarMasksPerWord] = {'A', 'C', 'G', 'T', 'N'};
  for (int half = 0; half < 2; ++half) {
    for (u32 k = 0; k < p.plen; ++k) {
      const util::u16 lut = p.mask[half * p.plen + k];
      const u32 w = k / 32;
      const u32 bit = 2 * (k % 32);
      for (usize c = 0; c < kSwarMasksPerWord; ++c) {
        if ((lut >> genome::iupac_nibble(kRefChars[c])) & 1u) {
          p.swar[(half * p.swar_words + w) * kSwarMasksPerWord + c] |= util::u64{1}
                                                                       << bit;
        }
      }
    }
  }
  return p;
}

}  // namespace

device_pattern make_pattern(std::string_view pattern) { return build(pattern); }

device_pattern make_query(std::string_view query) { return build(query); }

}  // namespace cof
