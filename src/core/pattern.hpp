// Pattern/query preparation for the two kernels.
//
// Cas-OFFinder's device data layout (matching the upstream OpenCL program
// and the paper's Listing 1):
//   * the finder consumes `pat` = [pattern | reverse_complement(pattern)]
//     (2*plen chars) and `pat_index` (2*plen ints): for each half, the
//     positions that are not 'N' (i.e. actually constrain the site — for a
//     guide pattern like NNNNNNNNNNNNNNNNNNNNNRG that is just the PAM),
//     terminated by -1;
//   * the comparer consumes `comp` = [query | reverse_complement(query)]
//     and `comp_index` with the same convention (the query's non-N
//     positions are its concrete guide bases).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace cof {

using util::i32;
using util::u32;
using util::usize;

/// u64 entries per (half, word) in device_pattern::swar: four per-reference-
/// code deny masks (A, C, G, T order) followed by the ambiguous-reference
/// ('N') deny mask. Each mask carries one bit per base at even bit positions
/// (bit 2*j for base j of the word), aligned with the 2-bit packed reference
/// words the opt6 comparer scans (kernels_swar.hpp).
inline constexpr usize kSwarMasksPerWord = 5;

/// Device-ready arrays for one search/compare sequence pair.
struct device_pattern {
  std::string seq;             // normalised input (upper case, U->T)
  std::string fwrc;            // seq + reverse_complement(seq), 2*plen chars
  std::vector<i32> index;      // 2*plen entries, -1-terminated per half
  std::vector<util::u16> mask; // 2*plen deny LUTs (opt6; see iupac.hpp)
  std::vector<util::u64> swar; // 2*swar_words*kSwarMasksPerWord per-word deny
                               // masks (opt6; derived from `mask`)
  u32 plen = 0;
  u32 swar_words = 0;          // 32-base words covering one half (ceil(plen/32))

  const char* data() const { return fwrc.data(); }
  const i32* index_data() const { return index.data(); }
  const util::u16* mask_data() const { return mask.data(); }
  const util::u64* swar_data() const { return swar.data(); }
  usize device_chars() const { return fwrc.size(); }
};

/// Build the finder arrays from the PAM-bearing pattern (e.g. "NN...NNRG").
device_pattern make_pattern(std::string_view pattern);

/// Build the comparer arrays from a query line (e.g. "GGCC...GCNNN").
device_pattern make_query(std::string_view query);

/// One character as normalize_sequence keeps it (upper case, U read as T), or
/// '\0' when it is not an IUPAC code.
char normalize_base(char c);

/// Normalise a sequence: upper-case, U->T. Throws config_error, naming the
/// sequence `what`, when it is empty or holds a non-IUPAC character, so
/// make_pattern / make_query reject a hostile pattern or guide from any
/// entry point.
std::string normalize_sequence(std::string_view seq, std::string_view what = "sequence");

}  // namespace cof
