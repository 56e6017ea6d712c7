// opt6 — the two-bit SWAR variant (the production rung past the paper's
// opt4): a packed-word PAM finder and comparer. The reference chunk
// travels only as 2-bit packed codes (32 bases per 64-bit word) plus an
// ambiguity flag in the same 2-bit geometry, packed once by whoever produces
// the chunk (swar_pack). Both kernels test 32 bases per word operation:
//
//   eq_c  = SWAR "both bits equal" of (ref ^ broadcast(c)), even bits
//   mm   |= eq_c & deny_c            for c in {A,C,G,T}
//
// Finder (finder_swar_kernel): one work-item covers 32 consecutive start
// positions. For each non-N PAM position k it fetches the 32-base window at
// start+k (the comparer's shift-combined two-word fetch) and tests it
// against that PAM character's broadcast deny masks; the surviving even
// bits of each strand are its hits, compacted with popcount/ctz behind one
// entrycount atomic per work-item. An ambiguous reference base (any
// non-ACGT byte) mismatches exactly when the PAM character is a concrete
// A/C/G/T, which is casoffinder_mismatch's rule for every non-ACGT
// character, so the finder needs no raw-character fallback and no barrier.
// Its lane body (finder_swar_lanes) tests eight work-items' words per
// AVX-512 step or four per AVX2 step and appends a block of
// kSwarFinderAppendBlock work-items' hits behind one atomic.
//
// Comparer (comparer_multi_swar_kernel): one launch covers every query of
// the chunk; a single guide is a batch of one. The host precomputes, per
// query half and per 32-base word, one 64-bit deny mask for each reference
// code plus a fifth for 'N' (device_pattern::swar, derived bit-for-bit from
// the per-character deny LUTs, genome::casoffinder_mismatch_mask). One word
// evaluation replaces up to 32 iterations of the per-character loop:
//
//   count = popcount(mm & ~ambiguous) + popcount(ambiguous & deny_N)
//
// The second term is the finder's ambiguity rule again: every non-ACGT
// reference byte mismatches exactly where 'N' does, so the words alone are
// exact and no chunk chars reach the device. The comparer applies opt2 to
// the window every query shares: it reads and decodes a locus's window
// words once (the first kSwarWindowBlock of them kept in registers, later
// ones built where a query reaches them) and scores each (query, strand)
// with its five deny masks and a popcount per word. The kernels are
// byte-identical to the paper's IUPAC chain on every reference byte,
// asserted exhaustively by tests/test_swar.cpp.
//
// The comparer cooperates with the two-phase executor (single leading
// barrier) like every other comparer. Both opt6 kernels also expose a
// lane-batched body (finder_swar_lanes, comparer_multi_swar_lanes) the
// executor can invoke over a whole work-group row. It runs at the SIMD tier
// in force (util::lane_tier, kernels_swar.cpp): eight work-items per
// instruction stream on AVX-512 hosts, four on AVX2 hosts, and the per-item
// body as the portable fallback (the comparer's row scores each strand's
// loci apart, eight or four of one strand per step). The per-item kernels
// stay the definition: counting launches never install a lane body.
#pragma once

#include <algorithm>
#include <string_view>
#include <vector>

#include "core/kernels.hpp"
#include "core/pattern.hpp"

namespace cof {

using util::u64;
using util::u8;

/// Even-bit lane mask: bit 2*j selects base j of a packed word.
inline constexpr u64 kSwarEvenBits = 0x5555555555555555ull;

/// 2-bit broadcast of each base code across a 64-bit word (A=0b00.., C=0b01..,
/// G=0b10.., T=0b11..): XOR with the packed reference zeroes the lanes whose
/// code equals c.
inline constexpr u64 kSwarBroadcast[4] = {
    0x0000000000000000ull, kSwarEvenBits, ~kSwarEvenBits, ~0ull};

/// Host-packed reference chunk for the opt6 kernels: 2-bit codes, 32 bases
/// per u64, plus ambiguity flags in the same geometry (bit 2*(i&31) of word
/// i>>5 set when base i is not a concrete A/C/G/T). Both arrays carry two
/// zero words of tail padding so the kernel's unaligned two-word window
/// fetch never reads past the end.
struct swar_ref {
  std::vector<u64> packed2;
  std::vector<u64> amb2;
  usize bases = 0;
};

/// u64 words in each of swar_pack(seq)'s arrays for `bases` bases.
inline constexpr usize swar_words_for(usize bases) { return (bases + 31) / 32 + 2; }

/// Bytes of both of swar_pack(seq)'s arrays for `bases` bases.
inline constexpr usize swar_ref_bytes(usize bases) {
  return 2 * swar_words_for(bases) * sizeof(u64);
}

/// Pack a chunk (kernels_swar.cpp): A/C/G/T take codes 0..3; every other
/// byte (IUPAC codes, lower case, anything else) packs as code 0 with its
/// ambiguity flag set.
swar_ref swar_pack(std::string_view seq);

/// Start positions one finder work-item covers (one packed word).
inline constexpr u32 kSwarFinderSpan = 32;

/// Work-items a finder launch needs for `chrsize` start positions.
inline constexpr usize swar_finder_items(usize chrsize) {
  return (chrsize + kSwarFinderSpan - 1) / kSwarFinderSpan;
}

/// Work-items of a finder lane row whose hits append behind one entrycount
/// atomic. Rows of any length (any work-group size) split into blocks of
/// this many, the last one shorter.
inline constexpr usize kSwarFinderAppendBlock = 64;

/// Window words of one locus the batched comparer keeps in registers
/// (128 bases); words past the block are built where they are used.
inline constexpr u32 kSwarWindowBlock = 4;

// ---------------------------------------------------------------------------
// packed-word finder
// ---------------------------------------------------------------------------

struct finder_swar_args {
  const u64* chr_packed2 = nullptr;  // 2-bit codes, padded (global)
  const u64* chr_amb2 = nullptr;     // ambiguity flags, same geometry (global)
  const u16* pat_mask = nullptr;     // 2*plen deny LUTs (constant)
  const i32* pat_index = nullptr;    // non-N positions, -1 terminated (constant)
  u32 chrsize = 0;                   // valid start positions in the chunk
  u32 plen = 0;
  u32* loci = nullptr;               // out: matching positions (global)
  char* flag = nullptr;              // out: 0 both strands, 1 fw, 2 rc (global)
  u32* entrycount = nullptr;         // atomic append counter (global)
  /// Output-array capacity; appends at or past it are dropped (counter
  /// still advances so the host can report the overflow).
  u32 entry_capacity = ~u32{0};
};

namespace detail {

/// Even bits of the `first` start positions' lanes that survive one strand's
/// PAM: the AND over its non-N positions k of "window at first+k does not
/// mismatch the PAM character there".
template <class PItem>
inline u64 swar_find_strand(PItem& p, const finder_swar_args& a, int half,
                            usize first, u64 live) {
  const usize off = static_cast<usize>(half) * a.plen;
  u64 ok = live;
  for (u32 j = 0; j < a.plen && ok != 0; ++j) {
    p.count_loop();
    const i32 k = p.gload(a.pat_index, off + j);
    if (k == -1) break;
    const u16 lut = p.gload(a.pat_mask, off + static_cast<usize>(k));
    const usize pos = first + static_cast<usize>(k);
    const u32 shift = 2 * (static_cast<u32>(pos) & 31u);
    const usize wi = pos >> 5;
    const u64 lo = p.gload(a.chr_packed2, wi);
    const u64 hi = p.gload(a.chr_packed2, wi + 1);
    const u64 alo = p.gload(a.chr_amb2, wi);
    const u64 ahi = p.gload(a.chr_amb2, wi + 1);
    const u64 ref = (lo >> shift) | ((hi << (63 - shift)) << 1);
    const u64 amb = (alo >> shift) | ((ahi << (63 - shift)) << 1);
    p.count_swar();
    // Reference code c mismatches when the LUT bit of its nibble (1 << c)
    // is set; every ambiguous byte behaves like nibble 15 ('N').
    u64 mm = 0;
    for (u32 c = 0; c < 4; ++c) {
      if (((lut >> (1u << c)) & 1u) == 0) continue;
      const u64 t = ~(ref ^ kSwarBroadcast[c]);
      mm |= t & (t >> 1) & kSwarEvenBits;
    }
    mm &= ~amb;
    if ((lut >> 15) & 1u) mm |= amb;
    ok &= ~mm;
  }
  return ok;
}

/// Live lanes of the work-item whose first start position is `first`: all
/// 32, or the start positions left before chrsize.
inline u64 swar_finder_live(const finder_swar_args& a, usize first) {
  const usize live_n = std::min<usize>(kSwarFinderSpan, a.chrsize - first);
  return live_n == kSwarFinderSpan ? kSwarEvenBits
                                   : kSwarEvenBits & ((u64{1} << (2 * live_n)) - 1);
}

/// Store one work-item's hits (its strands' surviving lanes, ascending) from
/// `slot` on; slots at or past the capacity are dropped. Returns the slot
/// after its last hit. The flag comes from the two strand bits by
/// arithmetic (both 0, forward only 1, reverse only 2): which strands hit
/// is close to a coin toss, so a branch on it would mispredict.
template <class PItem>
inline u32 swar_store_hits(PItem& p, const finder_swar_args& a, u32 slot, usize first,
                           u64 fw, u64 rc) {
  for (u64 rest = fw | rc; rest != 0; rest &= rest - 1, ++slot) {
    if (slot >= a.entry_capacity) continue;
    const u32 lane = static_cast<u32>(__builtin_ctzll(rest));
    p.gstore(a.loci, slot, static_cast<u32>(first + (lane >> 1)));
    const u32 fw_bit = static_cast<u32>(fw >> lane) & 1u;
    const u32 rc_bit = static_cast<u32>(rc >> lane) & 1u;
    p.gstore(a.flag, slot, static_cast<char>((fw_bit ^ 1u) * 2 + (rc_bit ^ 1u)));
  }
  return slot;
}

}  // namespace detail

/// opt6 finder: one work-item per 32 start positions, no local memory and
/// no barrier. Hits within a work-item append in ascending position order;
/// the order across work-items is whatever the atomic yields (as for the
/// per-position finders).
template <class P, class Item>
inline void finder_swar_kernel(const Item& it, const finder_swar_args& a) {
  typename P::item p;
  const usize first = it.get_global_id(0) * kSwarFinderSpan;
  if (first >= a.chrsize) return;
  const u64 live = detail::swar_finder_live(a, first);
  const u64 fw = detail::swar_find_strand(p, a, 0, first, live);
  const u64 rc = detail::swar_find_strand(p, a, 1, first, live);
  const u64 hits = fw | rc;
  if (hits == 0) return;
  const u32 slot = p.atomic_add(a.entrycount, static_cast<u32>(__builtin_popcountll(hits)));
  detail::swar_store_hits(p, a, slot, first, fw, rc);
}

/// Lane-batched finder row (direct memory only) over work-items
/// [first, first+nlanes), the same hits as finder_swar_kernel: each block
/// of kSwarFinderAppendBlock work-items appends behind one atomic, in
/// ascending position order. At the AVX-512 tier eight full work-items
/// share each step, at the AVX2 tier four, with contiguous loads (the shift
/// of PAM position k is the same in every work-item), and at the AVX-512
/// tier each work-item's hits are stored by compress and masked store; the
/// full work-items left after a block's last group, a ragged last
/// work-item, and every work-item at the scalar tier run the per-item
/// strand test. Implemented in kernels_swar.cpp.
void finder_swar_lanes(const finder_swar_args& a, usize first, usize nlanes);

// ---------------------------------------------------------------------------
// kernel arguments
// ---------------------------------------------------------------------------

/// opt6's comparer: every query's SWAR masks concatenated, loci/flag read
/// once per locus.
struct comparer_multi_swar_args {
  u32 locicnts = 0;
  const u64* chr_packed2 = nullptr;
  const u64* chr_amb2 = nullptr;
  const u32* loci = nullptr;
  const char* flag = nullptr;
  const u64* comp_swar = nullptr;    // nqueries x 2*swar_words*kSwarMasksPerWord
  const u16* thresholds = nullptr;   // per query
  u32 nqueries = 0;
  u32 plen = 0;
  u32 swar_words = 0;
  u16* mm_count = nullptr;
  char* direction = nullptr;
  u32* mm_loci = nullptr;
  u16* mm_query = nullptr;           // out: query index per entry
  u32* entrycount = nullptr;
  u32 entry_capacity = ~u32{0};
  u64* l_comp_swar = nullptr;        // local
};

// ---------------------------------------------------------------------------
// scalar kernel bodies
// ---------------------------------------------------------------------------

namespace detail {

/// One 32-base word of a locus's reference window as the comparers score
/// it: eq[c] has the even bit of every base whose code is c, ambiguous
/// bases cleared; amb has the even bit of every ambiguous base. Both cover
/// only the pattern's first plen bases.
struct swar_window_word {
  u64 eq[4];
  u64 amb;
};

/// Word w of the window at `locus`: the two-word shift-combine of both
/// arrays, the ragged-tail limit and the four equality masks.
template <class PItem>
inline swar_window_word swar_window_at(PItem& p, const u64* packed2, const u64* amb2,
                                       u32 locus, u32 w, u32 plen) {
  const u32 shift = 2 * (locus & 31u);
  const usize wi = (locus >> 5) + w;
  const u64 lo = p.gload(packed2, wi);
  const u64 hi = p.gload(packed2, wi + 1);
  const u64 alo = p.gload(amb2, wi);
  const u64 ahi = p.gload(amb2, wi + 1);
  // (hi << (63-s)) << 1 == hi << (64-s), well-defined at s == 0 too.
  const u64 ref = (lo >> shift) | ((hi << (63 - shift)) << 1);
  const u64 amb = (alo >> shift) | ((ahi << (63 - shift)) << 1);
  // Ragged tail: only the first plen-32w bases of the last word are live.
  const u32 nb = plen - 32 * w;
  const u64 active = nb >= 32 ? ~u64{0} : (u64{1} << (2 * nb)) - 1;
  swar_window_word ww = {};
  ww.amb = amb & active;
  for (u32 c = 0; c < 4; ++c) {
    const u64 t = ~(ref ^ kSwarBroadcast[c]);
    ww.eq[c] = t & (t >> 1) & kSwarEvenBits & ~ww.amb;
  }
  return ww;
}

/// Mismatch lanes of one window word under the five deny masks at
/// masks[base..base+5). Packed codes are meaningless at ambiguous
/// positions, so every ambiguous reference byte scores like 'N' instead.
template <class PItem>
inline u64 swar_score(PItem& p, const swar_window_word& ww, const u64* masks,
                      usize base) {
  p.count_swar();
  u64 mm = 0;
  for (u32 c = 0; c < 4; ++c) mm |= ww.eq[c] & p.lload(masks, base + c);
  if (ww.amb != 0) mm |= ww.amb & p.lload(masks, base + 4);
  return mm;
}

/// The batched comparer's post-fetch work for one locus (also the lane
/// loop's body): loci[i]/flag[i] and the window's first kSwarWindowBlock
/// words are read once for every (query, strand); each of those scores
/// the shared words with its own deny masks, rebuilding only the words
/// past the block.
template <class PItem>
inline void swar_multi_item_body(PItem& p, const comparer_multi_swar_args& a, usize i) {
  if (i >= a.locicnts) return;
  const char f = p.gload(a.flag, i);
  const u32 locus = p.gload(a.loci, i);
  swar_window_word block[kSwarWindowBlock] = {};
  const u32 nblock = std::min(a.swar_words, kSwarWindowBlock);
  for (u32 w = 0; w < nblock; ++w) {
    block[w] = swar_window_at(p, a.chr_packed2, a.chr_amb2, locus, w, a.plen);
  }
  for (u32 q = 0; q < a.nqueries; ++q) {
    const u16 threshold = p.gload(a.thresholds, q);
    for (int half = 0; half < 2; ++half) {
      if (!(f == 0 || f == static_cast<char>(half + 1))) continue;
      const usize base = (static_cast<usize>(q) * 2 + static_cast<usize>(half)) *
                         a.swar_words * kSwarMasksPerWord;
      u16 lmm = 0;
      bool under = true;
      for (u32 w = 0; w < a.swar_words && under; ++w) {
        const u64 mm = swar_score(
            p,
            w < kSwarWindowBlock
                ? block[w]
                : swar_window_at(p, a.chr_packed2, a.chr_amb2, locus, w, a.plen),
            a.l_comp_swar, base + w * kSwarMasksPerWord);
        lmm = static_cast<u16>(lmm + __builtin_popcountll(mm));
        if (lmm > threshold) {
          p.count_branch();
          under = false;
        }
      }
      if (!under) continue;
      const u32 old = p.atomic_inc(a.entrycount);
      if (old < a.entry_capacity) {
        p.gstore(a.mm_count, old, lmm);
        p.gstore(a.direction, old, half == 0 ? '+' : '-');
        p.gstore(a.mm_loci, old, locus);
        p.gstore(a.mm_query, old, static_cast<u16>(q));
      }
    }
  }
}

}  // namespace detail

/// opt6 comparer. Structure mirrors opt3 (cooperative fetch, single leading
/// barrier, two-phase cooperation); the fetch brings in every query's
/// per-word SWAR masks.
template <class P, class Item>
inline void comparer_multi_swar_kernel(const Item& it,
                                       const comparer_multi_swar_args& a) {
  typename P::item p;
  const usize i = it.get_global_id(0);
  const usize li = i - it.get_group(0) * it.get_local_range(0);

  const xpu::exec_phase ph = it.cof_phase();
  if (ph != xpu::exec_phase::post_fetch) {
    const u32 nswar =
        a.nqueries * 2 * a.swar_words * static_cast<u32>(kSwarMasksPerWord);
    for (u32 k = static_cast<u32>(li); k < nswar;
         k += static_cast<u32>(it.get_local_range(0))) {
      p.lstore(a.l_comp_swar, k, p.gload(a.comp_swar, k));
    }
    if (ph == xpu::exec_phase::fetch_only) return;
    it.barrier();
  }
  detail::swar_multi_item_body(p, a, i);
}

/// Lane-batched post-fetch entry (direct memory policy only): the facades
/// hand this to the executor's lane dispatch for work-items
/// [first, first+nlanes). At the AVX-512 or AVX2 tier it splits the row's
/// loci by strand (a flag-0 locus on both) in blocks of bounded size and
/// scores eight (AVX-512) or four (AVX2) loci of one strand per step, each
/// group's window words built once for every query; at the scalar tier it
/// runs the per-item body (kernels_swar.cpp). All give the same entries
/// (their order aside), so the output bytes are the same too.
void comparer_multi_swar_lanes(const comparer_multi_swar_args& a, usize first,
                               usize nlanes);

}  // namespace cof
