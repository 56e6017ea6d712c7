// 2-bit variants of the device kernels — the upstream Cas-OFFinder memory
// optimisation the paper's §V cites ([21]: "a 2-bit sequence format, shared
// local memory and atomic operations"). The chunk travels as packed 2-bit
// codes plus a per-base ambiguity bitmask (3/8 of the char payload); the
// pattern/query arrays stay IUPAC chars in shared local memory and are
// matched against the packed reference through the base-mask algebra.
//
// Semantics: exactly the char kernels' relation. Every ambiguous reference
// base behaves like 'N', which is how the char kernels treat every non-ACGT
// reference byte (tests/test_fuzz_differential.cpp mixes reference IUPAC
// codes into its genomes).
#pragma once

#include "core/kernels.hpp"

namespace cof {

using util::u64;
using util::u8;

/// Base code (A=0 C=1 G=2 T=3) at position i of a packed sequence.
inline u8 twobit_code_at(const u8* packed, usize i) {
  return static_cast<u8>((packed[i >> 2] >> ((i & 3) * 2)) & 3);
}

/// Ambiguity bit at position i.
inline bool twobit_amb_at(const u64* amb, usize i) {
  return ((amb[i >> 6] >> (i & 63)) & 1) != 0;
}

/// casoffinder_mismatch against a packed reference. `P` meters the packed
/// byte + mask-word loads.
template <class PItem>
inline bool twobit_mismatch(PItem& p, char pat, const u8* packed, const u64* amb,
                            usize i) {
  p.count_compare();
  const u64 word = p.gload(amb, i >> 6);
  if (((word >> (i & 63)) & 1) != 0) {
    // Reference 'N': concrete pattern bases mismatch, degenerate codes do
    // not (the upstream chain's behaviour).
    return pat == 'A' || pat == 'C' || pat == 'G' || pat == 'T';
  }
  const u8 byte = p.gload(packed, i >> 2);
  const u8 code = static_cast<u8>((byte >> ((i & 3) * 2)) & 3);
  return ((genome::iupac_mask(pat) >> code) & 1) == 0;
}

struct finder_twobit_args {
  const u8* chr_packed = nullptr;
  const u64* chr_amb = nullptr;
  const char* pat = nullptr;
  const i32* pat_index = nullptr;
  u32 chrsize = 0;
  u32 plen = 0;
  u32* loci = nullptr;
  char* flag = nullptr;
  u32* entrycount = nullptr;
  /// Output-array capacity; appends at or past it are dropped (counter
  /// still advances so the host can report the overflow).
  u32 entry_capacity = ~u32{0};
  char* l_pat = nullptr;
  i32* l_pat_index = nullptr;
};

template <class P, class Item>
inline void finder_twobit_kernel(const Item& it, const finder_twobit_args& a) {
  typename P::item p;
  const usize i = it.get_global_id(0);
  const usize li = i - it.get_group(0) * it.get_local_range(0);

  // Cooperative fetch (the optimised style — this kernel postdates opt3),
  // cooperating with the two-phase executor like the char kernels.
  const xpu::exec_phase ph = it.cof_phase();
  if (ph != xpu::exec_phase::post_fetch) {
    for (u32 k = static_cast<u32>(li); k < a.plen * 2;
         k += static_cast<u32>(it.get_local_range(0))) {
      p.lstore(a.l_pat, k, p.gload(a.pat, k));
      p.lstore(a.l_pat_index, k, p.gload(a.pat_index, k));
    }
    if (ph == xpu::exec_phase::fetch_only) return;
    it.barrier();
  }
  if (i >= a.chrsize) return;

  bool strand_match[2];
  for (int half = 0; half < 2; ++half) {
    bool match = true;
    for (u32 j = 0; j < a.plen; ++j) {
      p.count_loop();
      const i32 k = p.lload(a.l_pat_index, half * a.plen + j);
      if (k == -1) break;
      const auto ku = static_cast<usize>(k);
      const char pc = p.lload(a.l_pat, half * a.plen + ku);
      if (twobit_mismatch(p, pc, a.chr_packed, a.chr_amb, i + ku)) {
        match = false;
        p.count_branch();
        break;
      }
    }
    strand_match[half] = match;
  }
  if (strand_match[0] || strand_match[1]) {
    const u32 old = p.atomic_inc(a.entrycount);
    if (old < a.entry_capacity) {
      p.gstore(a.loci, old, static_cast<u32>(i));
      const char f = strand_match[0] && strand_match[1] ? 0 : (strand_match[0] ? 1 : 2);
      p.gstore(a.flag, old, f);
    }
  }
}

struct comparer_twobit_args {
  u32 locicnts = 0;
  const u8* chr_packed = nullptr;
  const u64* chr_amb = nullptr;
  const u32* loci = nullptr;
  const char* flag = nullptr;
  const char* comp = nullptr;
  const i32* comp_index = nullptr;
  u32 plen = 0;
  u16 threshold = 0;
  u16* mm_count = nullptr;
  char* direction = nullptr;
  u32* mm_loci = nullptr;
  u32* entrycount = nullptr;
  /// Output-array capacity; appends at or past it are dropped (counter
  /// still advances so the host can report the overflow).
  u32 entry_capacity = ~u32{0};
  char* l_comp = nullptr;
  i32* l_comp_index = nullptr;
};

namespace detail {

template <class PItem>
inline void compare_strand_twobit(PItem& p, const comparer_twobit_args& a, int half,
                                  char dir, u32 locus) {
  u16 lmm_count = 0;
  for (u32 j = 0; j < a.plen; ++j) {
    p.count_loop();
    const i32 k = p.lload(a.l_comp_index, half * a.plen + j);
    if (k == -1) break;
    const auto ku = static_cast<usize>(k);
    const char pc = p.lload(a.l_comp, half * a.plen + ku);
    if (twobit_mismatch(p, pc, a.chr_packed, a.chr_amb, locus + ku)) {
      ++lmm_count;
      if (lmm_count > a.threshold) {
        p.count_branch();
        break;
      }
    }
  }
  if (lmm_count <= a.threshold) {
    const u32 old = p.atomic_inc(a.entrycount);
    if (old < a.entry_capacity) {
      p.gstore(a.mm_count, old, lmm_count);
      p.gstore(a.direction, old, dir);
      p.gstore(a.mm_loci, old, locus);
    }
  }
}

}  // namespace detail

/// Optimised-style (opt3-equivalent) comparer over packed references.
template <class P, class Item>
inline void comparer_twobit_kernel(const Item& it, const comparer_twobit_args& a) {
  typename P::item p;
  const usize i = it.get_global_id(0);
  const usize li = i - it.get_group(0) * it.get_local_range(0);

  const xpu::exec_phase ph = it.cof_phase();
  if (ph != xpu::exec_phase::post_fetch) {
    for (u32 k = static_cast<u32>(li); k < a.plen * 2;
         k += static_cast<u32>(it.get_local_range(0))) {
      p.lstore(a.l_comp, k, p.gload(a.comp, k));
      p.lstore(a.l_comp_index, k, p.gload(a.comp_index, k));
    }
    if (ph == xpu::exec_phase::fetch_only) return;
    it.barrier();
  }
  if (i >= a.locicnts) return;

  const char f = p.gload(a.flag, i);
  const u32 locus = p.gload(a.loci, i);
  if (f == 0 || f == 1) detail::compare_strand_twobit(p, a, 0, '+', locus);
  if (f == 0 || f == 2) detail::compare_strand_twobit(p, a, 1, '-', locus);
}

}  // namespace cof
