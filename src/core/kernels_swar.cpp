// Host-side packing for the opt6 SWAR kernels and their lane-batched
// bodies. The AVX2 and AVX-512 code lives here (not in the header) so it
// can carry target attributes and compile in a portable build; runtime
// dispatch (util::lane_tier) guarantees each tier only executes on hosts
// with its instructions.
#include "core/kernels_swar.hpp"

#include <algorithm>
#include <array>

#include "util/cpufeat.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cof {

namespace {

/// Per byte: bits 0-1 hold the 2-bit code (A=0 C=1 G=2 T=3, 0 otherwise),
/// bit 2 is set for every byte that is not an upper-case A/C/G/T.
constexpr std::array<u8, 256> kPackTable = [] {
  std::array<u8, 256> t{};
  t.fill(4);
  t['A'] = 0;
  t['C'] = 1;
  t['G'] = 2;
  t['T'] = 3;
  return t;
}();

/// Pack n <= 32 bases into one code word and one ambiguity word. Inlined
/// with n == 32 for every full word, so the loop unrolls into table loads,
/// shifts and ORs with no per-base branch.
inline void pack_word(const char* s, usize n, u64& code, u64& amb) {
  u64 c = 0;
  u64 a = 0;
  for (usize j = 0; j < n; ++j) {
    const u64 v = kPackTable[static_cast<u8>(s[j])];
    c |= (v & 3u) << (2 * j);
    a |= (v >> 2) << (2 * j);
  }
  code = c;
  amb = a;
}

/// End of the live lanes of a row: lanes past `count` work-items are idle
/// (the ND-range is rounded up to the group size).
usize live_end(usize first, usize nlanes, usize count) {
  return first >= count ? first : first + std::min<usize>(nlanes, count - first);
}

}  // namespace

#if defined(__x86_64__)

namespace {

#define COF_AVX2 __attribute__((target("avx2,popcnt")))

/// 32 bytes of 2-bit values as one packed word, byte j's value at bits
/// 2j..2j+1: maddubs joins byte pairs (v0 + 4 v1), madd joins pair pairs
/// (+ 16 * (v2 + 4 v3)), so byte 0 of each 32-bit lane holds four bases;
/// one shuffle gathers those bytes into the low half of each 128-bit lane.
COF_AVX2 inline u64 avx2_pack_codes(__m256i v) {
  const __m256i pairs = _mm256_maddubs_epi16(v, _mm256_set1_epi16(0x0401));
  const __m256i quads = _mm256_madd_epi16(pairs, _mm256_set1_epi32(0x00100001));
  const __m256i bytes = _mm256_shuffle_epi8(
      quads, _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                              0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1));
  const auto lo = static_cast<u32>(_mm_cvtsi128_si32(_mm256_castsi256_si128(bytes)));
  const auto hi = static_cast<u32>(_mm_cvtsi128_si32(_mm256_extracti128_si256(bytes, 1)));
  return u64{lo} | (u64{hi} << 32);
}

/// pack_word of 32 bases per step over the first `words` full words of s:
/// A/C/G/T take codes 0..3 from their low nibble (1, 3, 7, 4), every other
/// byte code 0 and its ambiguity bit.
COF_AVX2 void avx2_pack_words(const char* s, usize words, u64* code, u64* amb) {
  const __m256i nibble_code = _mm256_setr_epi8(0, 0, 0, 1, 3, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0,
                                               0, 0, 0, 1, 3, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  const __m256i one = _mm256_set1_epi8(1);
  for (usize w = 0; w < words; ++w) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 32 * w));
    const __m256i acgt = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpeq_epi8(v, _mm256_set1_epi8('A')),
                        _mm256_cmpeq_epi8(v, _mm256_set1_epi8('C'))),
        _mm256_or_si256(_mm256_cmpeq_epi8(v, _mm256_set1_epi8('G')),
                        _mm256_cmpeq_epi8(v, _mm256_set1_epi8('T'))));
    const __m256i codes = _mm256_and_si256(
        acgt, _mm256_shuffle_epi8(nibble_code, _mm256_and_si256(v, low_nibble)));
    code[w] = avx2_pack_codes(codes);
    amb[w] = avx2_pack_codes(_mm256_andnot_si256(acgt, one));
  }
}

/// Where four loci's windows start: the packed word of each locus and the
/// shift that aligns it.
struct avx2_loci {
  __m256i wi;
  __m256i shift;
  __m256i shift_hi;  // 63 - shift
};

/// Word w of four loci's windows, the AVX2 twin of swar_window_word.
struct avx2_window_word {
  __m256i eq[4];
  __m256i amb;
};

/// (lo >> s) | (hi << (64-s)) per lane, well-defined at s == 0 too: the
/// two-word shift-combine of the scalar kernels, per-lane shifts.
COF_AVX2 inline __m256i avx2_combine(__m256i lo, __m256i hi, __m256i s, __m256i s_hi) {
  return _mm256_or_si256(_mm256_srlv_epi64(lo, s),
                         _mm256_slli_epi64(_mm256_sllv_epi64(hi, s_hi), 1));
}

/// The same with one shift for every lane.
COF_AVX2 inline __m256i avx2_combine(__m256i lo, __m256i hi, __m128i s, __m128i s_hi) {
  return _mm256_or_si256(_mm256_srl_epi64(lo, s),
                         _mm256_slli_epi64(_mm256_sll_epi64(hi, s_hi), 1));
}

/// Four consecutive words from `p` on (unaligned).
COF_AVX2 inline __m256i avx2_load(const u64* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// Even bit of every lane whose 2-bit code in `ref` equals c.
COF_AVX2 inline __m256i avx2_code_eq(__m256i ref, u32 c) {
  const __m256i t = _mm256_xor_si256(
      _mm256_xor_si256(ref, _mm256_set1_epi64x(static_cast<long long>(kSwarBroadcast[c]))),
      _mm256_set1_epi64x(-1));
  return _mm256_and_si256(_mm256_and_si256(t, _mm256_srli_epi64(t, 1)),
                          _mm256_set1_epi64x(static_cast<long long>(kSwarEvenBits)));
}

COF_AVX2 inline avx2_loci avx2_loci_of(const u32 locus[4]) {
  const __m256i v = _mm256_set_epi64x(locus[3], locus[2], locus[1], locus[0]);
  avx2_loci l = {};
  l.wi = _mm256_srli_epi64(v, 5);
  l.shift = _mm256_slli_epi64(_mm256_and_si256(v, _mm256_set1_epi64x(31)), 1);
  l.shift_hi = _mm256_sub_epi64(_mm256_set1_epi64x(63), l.shift);
  return l;
}

/// The comparer's AVX2 window helper: gathers word w (and the word after
/// it) of both arrays at each locus, shift-combines them, limits the
/// ambiguity mask to the pattern's live bases and derives the four equality
/// masks, ambiguous lanes cleared (swar_window_at, four loci wide).
COF_AVX2 inline void avx2_window_at(const u64* packed2, const u64* amb2,
                                    const avx2_loci& l, u32 w, u32 plen,
                                    avx2_window_word& out) {
  const auto* packed = reinterpret_cast<const long long*>(packed2);
  const auto* ambp = reinterpret_cast<const long long*>(amb2);
  const __m256i idx = _mm256_add_epi64(l.wi, _mm256_set1_epi64x(w));
  const __m256i idx1 = _mm256_add_epi64(idx, _mm256_set1_epi64x(1));
  const __m256i ref = avx2_combine(_mm256_i64gather_epi64(packed, idx, 8),
                                   _mm256_i64gather_epi64(packed, idx1, 8), l.shift,
                                   l.shift_hi);
  const __m256i amb = avx2_combine(_mm256_i64gather_epi64(ambp, idx, 8),
                                   _mm256_i64gather_epi64(ambp, idx1, 8), l.shift,
                                   l.shift_hi);
  const u32 nb = plen - 32 * w;
  const u64 active = nb >= 32 ? ~u64{0} : (u64{1} << (2 * nb)) - 1;
  out.amb = _mm256_and_si256(amb, _mm256_set1_epi64x(static_cast<long long>(active)));
  for (u32 c = 0; c < 4; ++c) {
    out.eq[c] = _mm256_andnot_si256(out.amb, avx2_code_eq(ref, c));
  }
}

/// Each 64-bit lane's popcount: a nibble table per byte (vpshufb), then
/// vpsadbw sums each lane's eight byte counts.
COF_AVX2 inline __m256i avx2_popcount(__m256i v) {
  const __m256i table = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_shuffle_epi8(table, _mm256_and_si256(v, nibble));
  const __m256i hi =
      _mm256_shuffle_epi8(table, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

/// Each lane's mismatch count under the five deny masks at `masks`
/// (swar_score plus the popcount), one locus per 64-bit lane.
COF_AVX2 inline __m256i avx2_score(const avx2_window_word& ww, const u64* masks) {
  __m256i mm = _mm256_and_si256(
      ww.amb, _mm256_set1_epi64x(static_cast<long long>(masks[4])));
  for (int c = 0; c < 4; ++c) {
    mm = _mm256_or_si256(
        mm, _mm256_and_si256(ww.eq[c],
                             _mm256_set1_epi64x(static_cast<long long>(masks[c]))));
  }
  return avx2_popcount(mm);
}

/// Four loci of the comparer on one strand (half 0 forward, 1 reverse):
/// every query scores the windows with that strand's masks, the four
/// lanes' counts in one register. The windows' first kSwarWindowBlock
/// words are built when a query first reads them and kept for the next
/// query; later words are built where they are read. One compare and
/// movemask give the lanes over the threshold; a query stops once every
/// live lane is over, and only a query with a live lane at or under its
/// threshold leaves the registers to append. Lanes outside `live` are
/// padding. Only sound for the direct memory policy (no event counting) —
/// the facades only install the lane path when profiling is off.
COF_AVX2 void avx2_strand_quad(const comparer_multi_swar_args& a, const u32* locus,
                               unsigned live, int half) {
  const avx2_loci loci = avx2_loci_of(locus);
  const int dead = static_cast<int>(~live & 0xF);
  avx2_window_word block[kSwarWindowBlock];
  u32 built = 0;
  for (u32 q = 0; q < a.nqueries; ++q) {
    const __m256i threshold = _mm256_set1_epi64x(a.thresholds[q]);
    const u64* masks = a.l_comp_swar + (static_cast<usize>(q) * 2 +
                                        static_cast<usize>(half)) *
                                           a.swar_words * kSwarMasksPerWord;
    __m256i lmm = _mm256_setzero_si256();
    int over = 0;
    for (u32 w = 0; w < a.swar_words; ++w) {
      if (w < kSwarWindowBlock) {
        // Words are read in order, so word w is built here or was before.
        if (w == built) {
          avx2_window_at(a.chr_packed2, a.chr_amb2, loci, w, a.plen, block[w]);
          ++built;
        }
        lmm = _mm256_add_epi64(lmm, avx2_score(block[w], masks + w * kSwarMasksPerWord));
      } else {
        avx2_window_word ww;
        avx2_window_at(a.chr_packed2, a.chr_amb2, loci, w, a.plen, ww);
        lmm = _mm256_add_epi64(lmm, avx2_score(ww, masks + w * kSwarMasksPerWord));
      }
      over = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(lmm, threshold)));
      if ((over | dead) == 0xF) break;
    }
    int under = static_cast<int>(live) & ~over;
    if (under == 0) continue;
    alignas(32) u64 count[4] = {};
    _mm256_store_si256(reinterpret_cast<__m256i*>(count), lmm);
    for (; under != 0; under &= under - 1) {
      const int l = __builtin_ctz(static_cast<unsigned>(under));
      const u32 old = std::atomic_ref<u32>(*a.entrycount).fetch_add(1u);
      if (old < a.entry_capacity) {
        a.mm_count[old] = static_cast<u16>(count[l]);
        a.direction[old] = half == 0 ? '+' : '-';
        a.mm_loci[old] = locus[l];
        a.mm_query[old] = static_cast<u16>(q);
      }
    }
  }
}

/// One strand of four consecutive full finder work-items starting at item
/// g: swar_find_strand four words wide. PAM position k sits at the same
/// shift in each of the four windows, so the words come from contiguous
/// loads.
COF_AVX2 __m256i avx2_find_strand(const finder_swar_args& a, int half, usize g) {
  const usize off = static_cast<usize>(half) * a.plen;
  __m256i ok = _mm256_set1_epi64x(static_cast<long long>(kSwarEvenBits));
  for (u32 j = 0; j < a.plen; ++j) {
    const i32 k = a.pat_index[off + j];
    if (k == -1) break;
    const u16 lut = a.pat_mask[off + static_cast<usize>(k)];
    const usize wi = g + (static_cast<usize>(k) >> 5);
    const u32 shift = 2 * (static_cast<u32>(k) & 31u);
    const __m128i s = _mm_cvtsi32_si128(static_cast<int>(shift));
    const __m128i s_hi = _mm_cvtsi32_si128(static_cast<int>(63 - shift));
    const __m256i ref = avx2_combine(avx2_load(a.chr_packed2 + wi),
                                     avx2_load(a.chr_packed2 + wi + 1), s, s_hi);
    const __m256i amb = avx2_combine(avx2_load(a.chr_amb2 + wi),
                                     avx2_load(a.chr_amb2 + wi + 1), s, s_hi);
    __m256i mm = _mm256_setzero_si256();
    for (u32 c = 0; c < 4; ++c) {
      if (((lut >> (1u << c)) & 1u) != 0) mm = _mm256_or_si256(mm, avx2_code_eq(ref, c));
    }
    mm = _mm256_andnot_si256(amb, mm);
    if ((lut >> 15) & 1u) mm = _mm256_or_si256(mm, amb);
    ok = _mm256_andnot_si256(mm, ok);
    if (_mm256_testz_si256(ok, ok)) break;
  }
  return ok;
}

/// Both strands of the full work-items [g, g+n) four at a time, into
/// fw/rc; returns how many it covered (a multiple of four).
COF_AVX2 usize avx2_find_quads(const finder_swar_args& a, usize g, usize n, u64* fw,
                               u64* rc) {
  usize j = 0;
  for (; j + 4 <= n && (g + j + 4) * kSwarFinderSpan <= a.chrsize; j += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(fw + j), avx2_find_strand(a, 0, g + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rc + j), avx2_find_strand(a, 1, g + j));
  }
  return j;
}

#undef COF_AVX2

// AVX-512 (F, VL, BW, VBMI2, VPOPCNTDQ, with BMI2): eight loci or work-items
// per step. GCC 12's headers route some unmasked forms (_mm512_srli_epi64,
// _mm512_andnot_si512, _mm512_i64gather_epi64, _mm512_cvtepu32_epi64)
// through _mm512_undefined_epi32, which -Wall reports as uninitialised, so
// this code uses their full-mask maskz/mask forms and vpternlogq instead.
#define COF_AVX512 \
  __attribute__((target("avx2,bmi2,popcnt,avx512f,avx512vl,avx512bw,avx512vbmi2,avx512vpopcntdq")))

/// vpternlogq immediate for "a ? b : c" per bit (a = 0xF0, b = 0xCC, c = 0xAA).
inline constexpr int kTernSelect = 0xCA;

COF_AVX512 inline __m512i avx512_select(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi64(a, b, c, kTernSelect);
}

COF_AVX512 inline __m512i avx512_broadcast(u64 v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// Word w of eight loci's windows: the shift-combined codes, the codes
/// shifted down one bit (so each base's high code bit sits at its even
/// bit) and the ambiguity flags.
struct avx512_window_word {
  __m512i ref;
  __m512i ref_hi;
  __m512i amb;
};

/// The mismatch lanes of one window word under the five deny masks at
/// `masks`, counted per locus. The masks carry only even bits, zero past
/// plen, so a base's bit is picked straight out of them: its low code bit
/// selects between A's and C's (G's and T's) mask, its high code bit
/// between those two, and an ambiguous base takes N's mask instead. That
/// is swar_score's OR of four equality masks and N's, with no equality
/// mask and no ragged-tail limit built.
COF_AVX512 inline __m512i avx512_score(const avx512_window_word& ww, const u64* masks) {
  const __m512i ac = avx512_select(ww.ref, avx512_broadcast(masks[1]),
                                   avx512_broadcast(masks[0]));
  const __m512i gt = avx512_select(ww.ref, avx512_broadcast(masks[3]),
                                   avx512_broadcast(masks[2]));
  const __m512i code = avx512_select(ww.ref_hi, gt, ac);
  return _mm512_popcnt_epi64(avx512_select(ww.amb, avx512_broadcast(masks[4]), code));
}

/// base[at] per lane.
COF_AVX512 inline __m512i avx512_gather(const u64* base, __m512i at) {
  return _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xFF, at, base, 8);
}

/// Word w of the windows at word index `wi` shifted right by `shift` bits
/// per lane: eight-lane gathers of both arrays' two words, combined with
/// vpshrdvq ((lo >> s) | (hi << (64 - s)), lo at s == 0).
COF_AVX512 inline avx512_window_word avx512_window_at(const u64* packed2, const u64* amb2,
                                                     __m512i wi, __m512i shift, u32 w) {
  const __m512i idx = _mm512_add_epi64(wi, avx512_broadcast(w));
  const __m512i idx1 = _mm512_add_epi64(idx, avx512_broadcast(1));
  avx512_window_word ww;
  ww.ref = _mm512_shrdv_epi64(avx512_gather(packed2, idx), avx512_gather(packed2, idx1), shift);
  ww.ref_hi = _mm512_maskz_srli_epi64(0xFF, ww.ref, 1);
  ww.amb = _mm512_shrdv_epi64(avx512_gather(amb2, idx), avx512_gather(amb2, idx1), shift);
  return ww;
}

/// avx2_strand_quad eight loci wide: the windows' first kSwarWindowBlock
/// words are built once for every query, one masked unsigned compare per
/// word keeps the live lanes still at or under the threshold (a query stops
/// when none is), and its lanes are the query's entries, appended behind
/// one atomic.
COF_AVX512 void avx512_strand_oct(const comparer_multi_swar_args& a, const u32* locus,
                                  unsigned live, int half) {
  const __m512i at = _mm512_maskz_cvtepu32_epi64(
      0xFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(locus)));
  const __m512i wi = _mm512_maskz_srli_epi64(0xFF, at, 5);
  const __m512i in_word = _mm512_and_epi64(at, avx512_broadcast(31));
  const __m512i shift = _mm512_add_epi64(in_word, in_word);
  avx512_window_word block[kSwarWindowBlock];
  u32 built = 0;
  for (u32 q = 0; q < a.nqueries; ++q) {
    const __m512i threshold = avx512_broadcast(a.thresholds[q]);
    const u64* masks = a.l_comp_swar + (static_cast<usize>(q) * 2 +
                                        static_cast<usize>(half)) *
                                           a.swar_words * kSwarMasksPerWord;
    __m512i lmm = _mm512_setzero_si512();
    auto under = static_cast<__mmask8>(live);
    for (u32 w = 0; w < a.swar_words && under != 0; ++w) {
      if (w < kSwarWindowBlock) {
        // Words are read in order, so word w is built here or was before.
        if (w == built) {
          block[built++] = avx512_window_at(a.chr_packed2, a.chr_amb2, wi, shift, w);
        }
        lmm = _mm512_add_epi64(lmm, avx512_score(block[w], masks + w * kSwarMasksPerWord));
      } else {
        lmm = _mm512_add_epi64(
            lmm, avx512_score(avx512_window_at(a.chr_packed2, a.chr_amb2, wi, shift, w),
                              masks + w * kSwarMasksPerWord));
      }
      under = _mm512_mask_cmple_epu64_mask(under, lmm, threshold);
    }
    if (under == 0) continue;
    alignas(64) u64 count[8];
    _mm512_store_si512(count, lmm);
    u32 slot = std::atomic_ref<u32>(*a.entrycount)
                   .fetch_add(static_cast<u32>(__builtin_popcount(under)));
    for (unsigned rest = under; rest != 0; rest &= rest - 1, ++slot) {
      if (slot >= a.entry_capacity) continue;
      const int l = __builtin_ctz(rest);
      a.mm_count[slot] = static_cast<u16>(count[l]);
      a.direction[slot] = half == 0 ? '+' : '-';
      a.mm_loci[slot] = locus[l];
      a.mm_query[slot] = static_cast<u16>(q);
    }
  }
}

/// Every base's even bit when the deny LUT's bit `nibble` is set (the PAM
/// character mismatches that reference code), none otherwise.
COF_AVX512 inline __m512i avx512_deny(u16 lut, u32 nibble) {
  return avx512_broadcast(((lut >> nibble) & 1u) != 0 ? kSwarEvenBits : 0);
}

/// avx2_find_strand eight work-items wide: both arrays' words from
/// contiguous loads, one vpshrdvq each, and the PAM character's deny set
/// picked per base like avx512_score, from all-even or zero masks.
COF_AVX512 __m512i avx512_find_strand(const finder_swar_args& a, int half, usize g) {
  const usize off = static_cast<usize>(half) * a.plen;
  __m512i ok = avx512_broadcast(kSwarEvenBits);
  for (u32 j = 0; j < a.plen; ++j) {
    const i32 k = a.pat_index[off + j];
    if (k == -1) break;
    const u16 lut = a.pat_mask[off + static_cast<usize>(k)];
    const usize wi = g + (static_cast<usize>(k) >> 5);
    const __m512i shift = avx512_broadcast(2 * (static_cast<u32>(k) & 31u));
    avx512_window_word ww;
    ww.ref = _mm512_shrdv_epi64(_mm512_loadu_si512(a.chr_packed2 + wi),
                                _mm512_loadu_si512(a.chr_packed2 + wi + 1), shift);
    ww.ref_hi = _mm512_maskz_srli_epi64(0xFF, ww.ref, 1);
    ww.amb = _mm512_shrdv_epi64(_mm512_loadu_si512(a.chr_amb2 + wi),
                                _mm512_loadu_si512(a.chr_amb2 + wi + 1), shift);
    const __m512i ac = avx512_select(ww.ref, avx512_deny(lut, 2), avx512_deny(lut, 1));
    const __m512i gt = avx512_select(ww.ref, avx512_deny(lut, 8), avx512_deny(lut, 4));
    const __m512i mm =
        avx512_select(ww.amb, avx512_deny(lut, 15), avx512_select(ww.ref_hi, gt, ac));
    ok = _mm512_maskz_andnot_epi64(0xFF, mm, ok);
    if (_mm512_test_epi64_mask(ok, ok) == 0) break;
  }
  return ok;
}

/// swar_store_hits for the work-items [g, g+n) from `slot` on: each
/// work-item's hit positions and flags compressed in ascending order
/// (vpcompressd, vpcompressb) and written with masked stores, so nothing
/// past its hits is touched. A work-item whose hits reach past the capacity
/// takes swar_store_hits.
COF_AVX512 void avx512_store_hits(const finder_swar_args& a, u32 slot, usize g, usize n,
                                  const u64* fw, const u64* rc) {
  direct_mem::item p;
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  for (usize j = 0; j < n; ++j) {
    if ((fw[j] | rc[j]) == 0) continue;
    const usize first = (g + j) * kSwarFinderSpan;
    const auto fwm = static_cast<u32>(_pext_u64(fw[j], kSwarEvenBits));
    const auto rcm = static_cast<u32>(_pext_u64(rc[j], kSwarEvenBits));
    const u32 hits = fwm | rcm;
    const auto k = static_cast<u32>(__builtin_popcount(hits));
    if (slot >= a.entry_capacity || k > a.entry_capacity - slot) {
      slot = detail::swar_store_hits(p, a, slot, first, fw[j], rc[j]);
      continue;
    }
    const __m512i pos = _mm512_add_epi32(iota, _mm512_set1_epi32(static_cast<int>(first)));
    const auto klo = static_cast<u32>(__builtin_popcount(hits & 0xFFFFu));
    _mm512_mask_storeu_epi32(a.loci + slot, static_cast<__mmask16>((1u << klo) - 1),
                             _mm512_maskz_compress_epi32(static_cast<__mmask16>(hits), pos));
    _mm512_mask_storeu_epi32(
        a.loci + slot + klo, static_cast<__mmask16>((1u << (k - klo)) - 1),
        _mm512_maskz_compress_epi32(static_cast<__mmask16>(hits >> 16),
                                    _mm512_add_epi32(pos, _mm512_set1_epi32(16))));
    // Flag 0 both strands, 1 forward only, 2 reverse only: 3 less 2 for a
    // forward hit and 1 for a reverse one.
    __m256i flags = _mm256_set1_epi8(3);
    flags = _mm256_mask_sub_epi8(flags, fwm, flags, _mm256_set1_epi8(2));
    flags = _mm256_mask_sub_epi8(flags, rcm, flags, _mm256_set1_epi8(1));
    _mm256_mask_storeu_epi8(a.flag + slot, static_cast<__mmask32>((u64{1} << k) - 1),
                            _mm256_maskz_compress_epi8(hits, flags));
    slot += k;
  }
}

/// Both strands of the full work-items [g, g+n) eight at a time, into
/// fw/rc; returns how many it covered (a multiple of eight).
COF_AVX512 usize avx512_find_octs(const finder_swar_args& a, usize g, usize n, u64* fw,
                                  u64* rc) {
  usize j = 0;
  for (; j + 8 <= n && (g + j + 8) * kSwarFinderSpan <= a.chrsize; j += 8) {
    _mm512_storeu_si512(fw + j, avx512_find_strand(a, 0, g + j));
    _mm512_storeu_si512(rc + j, avx512_find_strand(a, 1, g + j));
  }
  return j;
}

#undef COF_AVX512

/// One tier's strand scorer: kLanes loci of one strand, `live` marking
/// the real ones (the rest pad a short group).
using strand_scorer = void (*)(const comparer_multi_swar_args& a, const u32* locus,
                               unsigned live, int half);

/// Loci of a row gathered for one strand before its lane groups score them.
inline constexpr usize kStrandBlock = 64;

/// Score list[0, n) of one strand kLanes loci at a time. Returns how many
/// loci are left (fewer than kLanes, moved to the front for the next
/// fill), or 0 when `flush` scores them too as a group padded with its
/// first locus.
template <usize kLanes, strand_scorer Score>
usize strand_groups(const comparer_multi_swar_args& a, u32* list, usize n, int half,
                    bool flush) {
  static_assert(kStrandBlock % kLanes == 0);
  constexpr unsigned kAll = (1u << kLanes) - 1;
  usize k = 0;
  for (; k + kLanes <= n; k += kLanes) Score(a, list + k, kAll, half);
  const usize rest = n - k;
  if (rest == 0) return 0;
  if (!flush) {
    std::copy(list + k, list + n, list);
    return rest;
  }
  u32 group[kLanes];
  std::fill(group, group + kLanes, list[k]);
  std::copy(list + k, list + n, group);
  Score(a, group, (1u << rest) - 1, half);
  return 0;
}

/// The comparer's lane row [i, end) split by strand: a forward list (flag 0
/// or 1) and a reverse list (flag 0 or 2), each filled up to kStrandBlock
/// loci and scored in one-strand groups of kLanes, so no lane scores a
/// strand its locus cannot hit on. Each list's last loci short of a group
/// carry into the next fill; the row's end scores them padded.
template <usize kLanes, strand_scorer Score>
void strand_row(const comparer_multi_swar_args& a, usize i, usize end) {
  u32 fw[kStrandBlock];
  u32 rc[kStrandBlock];
  usize nfw = 0;
  usize nrc = 0;
  for (;;) {
    for (; i < end && nfw < kStrandBlock && nrc < kStrandBlock; ++i) {
      const char f = a.flag[i];
      const u32 locus = a.loci[i];
      fw[nfw] = locus;
      rc[nrc] = locus;
      nfw += static_cast<usize>(f == 0 || f == 1);
      nrc += static_cast<usize>(f == 0 || f == 2);
    }
    const bool last = i == end;
    nfw = strand_groups<kLanes, Score>(a, fw, nfw, 0, last);
    nrc = strand_groups<kLanes, Score>(a, rc, nrc, 1, last);
    if (last) return;
  }
}

}  // namespace

#endif  // __x86_64__

swar_ref swar_pack(std::string_view seq) {
  swar_ref r;
  r.bases = seq.size();
  const usize full = seq.size() / 32;
  const usize nwords = swar_words_for(seq.size());
  r.packed2.resize(nwords);
  r.amb2.resize(nwords);
  usize w = 0;
#if defined(__x86_64__)
  if (util::simd_lanes_enabled()) {
    avx2_pack_words(seq.data(), full, r.packed2.data(), r.amb2.data());
    w = full;
  }
#endif
  for (; w < full; ++w) {
    pack_word(seq.data() + 32 * w, 32, r.packed2[w], r.amb2[w]);
  }
  if (const usize tail = seq.size() - 32 * full; tail != 0) {
    pack_word(seq.data() + 32 * full, tail, r.packed2[full], r.amb2[full]);
  }
  return r;
}

// The lane bodies at the tier in force: AVX-512 octs, AVX2 quads (the
// finder's ragged rest runs the per-item strand test), or the per-item
// body.

void comparer_multi_swar_lanes(const comparer_multi_swar_args& a, usize first,
                               usize nlanes) {
  const usize end = live_end(first, nlanes, a.locicnts);
#if defined(__x86_64__)
  switch (util::lane_tier()) {
    case util::simd_tier::avx512: return strand_row<8, avx512_strand_oct>(a, first, end);
    case util::simd_tier::avx2: return strand_row<4, avx2_strand_quad>(a, first, end);
    case util::simd_tier::scalar: break;
  }
#endif
  for (direct_mem::item p; first < end; ++first) detail::swar_multi_item_body(p, a, first);
}

void finder_swar_lanes(const finder_swar_args& a, usize first, usize nlanes) {
  const usize end = live_end(first, nlanes, swar_finder_items(a.chrsize));
#if defined(__x86_64__)
  const util::simd_tier tier = util::lane_tier();
#endif
  direct_mem::item p;
  u64 fw[kSwarFinderAppendBlock] = {};
  u64 rc[kSwarFinderAppendBlock] = {};
  for (usize g = first; g < end; g += kSwarFinderAppendBlock) {
    const usize n = std::min(kSwarFinderAppendBlock, end - g);
    usize j = 0;
#if defined(__x86_64__)
    switch (tier) {
      case util::simd_tier::avx512: j = avx512_find_octs(a, g, n, fw, rc); break;
      case util::simd_tier::avx2: j = avx2_find_quads(a, g, n, fw, rc); break;
      case util::simd_tier::scalar: break;
    }
#endif
    for (; j < n; ++j) {
      const usize start = (g + j) * kSwarFinderSpan;
      const u64 live = detail::swar_finder_live(a, start);
      fw[j] = detail::swar_find_strand(p, a, 0, start, live);
      rc[j] = detail::swar_find_strand(p, a, 1, start, live);
    }
    u32 hits = 0;
    for (j = 0; j < n; ++j) hits += static_cast<u32>(__builtin_popcountll(fw[j] | rc[j]));
    if (hits == 0) continue;
    u32 slot = p.atomic_add(a.entrycount, hits);
#if defined(__x86_64__)
    if (tier == util::simd_tier::avx512) {
      avx512_store_hits(a, slot, g, n, fw, rc);
      continue;
    }
#endif
    for (j = 0; j < n; ++j) {
      slot = detail::swar_store_hits(p, a, slot, (g + j) * kSwarFinderSpan, fw[j], rc[j]);
    }
  }
}

}  // namespace cof
