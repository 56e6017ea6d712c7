// IUPAC nucleotide-code algebra: bitmask representation, degenerate-code
// matching, complements. Two match relations are exposed:
//
//  * iupac_match       — set-intersection semantics (general bioinformatics)
//  * casoffinder_mismatch — the exact Boolean-chain semantics of the
//    Cas-OFFinder kernels (Listing 1 of the paper / the upstream OpenCL
//    source). The serial reference, both device pipelines, and the tests all
//    share this single definition, so backends can be compared bit-for-bit.
//    Note its quirk: a degenerate pattern code (R, Y, ...) only counts a
//    mismatch against the listed concrete bases, so an 'N' in the reference
//    slips through; a concrete pattern base (A/C/G/T) counts a mismatch
//    against anything that differs, so reference 'N' mismatches.
#pragma once

#include <string>
#include <string_view>

#include "util/common.hpp"

namespace genome {

using util::u8;

/// 4-bit base mask: A=1, C=2, G=4, T=8. 0 for non-nucleotide characters.
u8 iupac_mask(char code);

/// Character for a 4-bit mask (0 -> 'N'? no: 0 has no code, returns '?').
char iupac_code(u8 mask);

/// True if `code` is a valid IUPAC nucleotide code (case-insensitive).
bool is_iupac(char code);

/// Set-intersection match: the reference base set is contained in the
/// pattern's set (ref must be non-empty). Used by the synthetic-genome
/// planner and property tests.
bool iupac_match(char pattern, char ref);

/// Complement of an IUPAC code (preserves case; non-codes map to 'N').
char complement(char code);

/// Reverse complement of a sequence.
std::string reverse_complement(std::string_view seq);

/// The kernels' mismatch relation (see header comment). Both arguments are
/// expected upper-case.
constexpr bool casoffinder_mismatch(char pat, char ref) {
  switch (pat) {
    case 'N': return false;
    case 'R': return ref == 'C' || ref == 'T';
    case 'Y': return ref == 'A' || ref == 'G';
    case 'K': return ref == 'A' || ref == 'C';
    case 'M': return ref == 'G' || ref == 'T';
    case 'W': return ref == 'C' || ref == 'G';
    case 'S': return ref == 'A' || ref == 'T';
    case 'H': return ref == 'G';
    case 'B': return ref == 'A';
    case 'V': return ref == 'T';
    case 'D': return ref == 'C';
    case 'A': return ref != 'A';
    case 'G': return ref != 'G';
    case 'C': return ref != 'C';
    case 'T': return ref != 'T';
    default: return true;  // unknown pattern char never matches
  }
}

/// Upper-case a base character (ASCII).
constexpr char upper_base(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

// ---------------------------------------------------------------------------
// bitmask-LUT form of casoffinder_mismatch (the source of opt6's deny masks)
// ---------------------------------------------------------------------------

/// Case-sensitive 4-bit nibble of a reference character: upper-case IUPAC
/// codes map to their A|C|G|T combination (A=1, C=2, G=4, T=8, ..., N=15);
/// every other character (lower case, unknown) maps to 0. Injective on
/// upper-case IUPAC codes, which is what makes the 16-bit LUT below exact.
constexpr u8 iupac_nibble(char c) {
  switch (c) {
    case 'A': return 1;
    case 'C': return 2;
    case 'G': return 4;
    case 'T': return 8;
    case 'M': return 1 | 2;
    case 'R': return 1 | 4;
    case 'W': return 1 | 8;
    case 'S': return 2 | 4;
    case 'Y': return 2 | 8;
    case 'K': return 4 | 8;
    case 'V': return 1 | 2 | 4;
    case 'H': return 1 | 2 | 8;
    case 'D': return 1 | 4 | 8;
    case 'B': return 2 | 4 | 8;
    case 'N': return 15;
    default: return 0;
  }
}

/// One representative reference character per nibble value. Bit 0 stands in
/// for every character iupac_nibble sends to 0 — they all take the chain's
/// default branch, so one representative ('?') covers them exactly.
inline constexpr char kNibbleRep[16] = {'?', 'A', 'C', 'M', 'G', 'R', 'S', 'V',
                                        'T', 'W', 'Y', 'H', 'K', 'D', 'B', 'N'};

/// 16-bit deny LUT for one pattern character: bit `iupac_nibble(ref)` is set
/// iff `casoffinder_mismatch(pat, ref)`. Because iupac_nibble is injective on
/// upper-case IUPAC codes and all remaining characters behave identically in
/// the chain, `(mask >> iupac_nibble(ref)) & 1` reproduces the chain for
/// every (pat, ref) character pair — including its quirks (pattern 'R' lets
/// reference 'N' through; pattern 'A' rejects it). A plain 4-bit allowed-set
/// intersection cannot: it would flag pat 'R' vs ref 'N' as a mismatch.
constexpr util::u16 casoffinder_mismatch_mask(char pat) {
  util::u16 m = 0;
  for (int r = 0; r < 16; ++r) {
    if (casoffinder_mismatch(pat, kNibbleRep[r])) {
      m = static_cast<util::u16>(m | (1u << r));
    }
  }
  return m;
}

}  // namespace genome
