// Host-side packing for the opt6 SWAR kernels and the comparer's AVX2
// lane-batched body. The AVX2 code lives here (not in the header) so it can
// carry a target("avx2") attribute and compile in a portable build; runtime
// dispatch (util::simd_lanes_enabled) guarantees it only executes on hosts
// with the instructions.
#include "core/kernels_swar.hpp"

#include <algorithm>
#include <array>

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

}  // namespace

swar_ref swar_pack(std::string_view seq) {
  swar_ref r;
  r.bases = seq.size();
  const usize full = seq.size() / 32;
  const usize nwords = swar_words_for(seq.size());
  r.packed2.resize(nwords);
  r.amb2.resize(nwords);
  for (usize w = 0; w < full; ++w) {
    pack_word(seq.data() + 32 * w, 32, r.packed2[w], r.amb2[w]);
  }
  if (const usize tail = seq.size() - 32 * full; tail != 0) {
    pack_word(seq.data() + 32 * full, tail, r.packed2[full], r.amb2[full]);
  }
  return r;
}

namespace detail {

namespace {

/// Scalar lane loop — the portable body and the tail handler of the AVX2
/// path. Identical arithmetic to comparer_swar_kernel's post-fetch phase.
void lanes_scalar(const comparer_swar_args& a, usize first, usize nlanes) {
  for (usize l = 0; l < nlanes; ++l) {
    direct_mem::item p;
    swar_item_body(p, a, first + l);
  }
}

}  // namespace

#if defined(__x86_64__)

namespace {

/// Four loci per instruction stream: gathered window fetch, SWAR mismatch
/// masks (ambiguous lanes scored by the 'N' mask) and popcounts across
/// lanes; the atomic appends peel out per lane. Only sound for the direct
/// memory policy (no event counting) — the facades only install the lane
/// path when profiling is off.
__attribute__((target("avx2,popcnt"))) void avx2_quad(const comparer_swar_args& a,
                                                      const usize gid[4]) {
  const auto* packed = reinterpret_cast<const long long*>(a.chr_packed2);
  const auto* ambp = reinterpret_cast<const long long*>(a.chr_amb2);

  char f[4];
  u32 locus[4];
  for (int l = 0; l < 4; ++l) {
    f[l] = a.flag[gid[l]];
    locus[l] = a.loci[gid[l]];
  }

  const __m256i vloci = _mm256_set_epi64x(locus[3], locus[2], locus[1], locus[0]);
  const __m256i vwi = _mm256_srli_epi64(vloci, 5);
  const __m256i vshift =
      _mm256_slli_epi64(_mm256_and_si256(vloci, _mm256_set1_epi64x(31)), 1);
  const __m256i vshift_hi = _mm256_sub_epi64(_mm256_set1_epi64x(63), vshift);
  const __m256i veven = _mm256_set1_epi64x(static_cast<long long>(kSwarEvenBits));
  const __m256i vones = _mm256_set1_epi64x(-1);

  for (int half = 0; half < 2; ++half) {
    const usize swar_base =
        static_cast<usize>(half) * a.swar_words * kSwarMasksPerWord;
    u32 lmm[4] = {0, 0, 0, 0};
    for (u32 w = 0; w < a.swar_words; ++w) {
      const __m256i vidx = _mm256_add_epi64(vwi, _mm256_set1_epi64x(w));
      const __m256i vidx1 = _mm256_add_epi64(vidx, _mm256_set1_epi64x(1));
      const __m256i lo = _mm256_i64gather_epi64(packed, vidx, 8);
      const __m256i hi = _mm256_i64gather_epi64(packed, vidx1, 8);
      const __m256i alo = _mm256_i64gather_epi64(ambp, vidx, 8);
      const __m256i ahi = _mm256_i64gather_epi64(ambp, vidx1, 8);
      const __m256i ref = _mm256_or_si256(
          _mm256_srlv_epi64(lo, vshift),
          _mm256_slli_epi64(_mm256_sllv_epi64(hi, vshift_hi), 1));
      __m256i amb = _mm256_or_si256(
          _mm256_srlv_epi64(alo, vshift),
          _mm256_slli_epi64(_mm256_sllv_epi64(ahi, vshift_hi), 1));
      const u32 nb = a.plen - 32 * w;
      const u64 active = nb >= 32 ? ~u64{0} : (u64{1} << (2 * nb)) - 1;
      amb = _mm256_and_si256(amb, _mm256_set1_epi64x(static_cast<long long>(active)));

      __m256i mm = _mm256_setzero_si256();
      for (int c = 0; c < 4; ++c) {
        const __m256i x = _mm256_xor_si256(
            ref, _mm256_set1_epi64x(static_cast<long long>(kSwarBroadcast[c])));
        const __m256i t = _mm256_xor_si256(x, vones);
        const __m256i eq =
            _mm256_and_si256(_mm256_and_si256(t, _mm256_srli_epi64(t, 1)), veven);
        const __m256i deny = _mm256_set1_epi64x(static_cast<long long>(
            a.l_comp_swar[swar_base + w * kSwarMasksPerWord + c]));
        mm = _mm256_or_si256(mm, _mm256_and_si256(eq, deny));
      }
      const __m256i deny_n = _mm256_set1_epi64x(
          static_cast<long long>(a.l_comp_swar[swar_base + w * kSwarMasksPerWord + 4]));
      mm = _mm256_or_si256(_mm256_andnot_si256(amb, mm), _mm256_and_si256(amb, deny_n));

      alignas(32) u64 mm_l[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(mm_l), mm);
      for (int l = 0; l < 4; ++l) lmm[l] += static_cast<u32>(_mm_popcnt_u64(mm_l[l]));
    }
    for (int l = 0; l < 4; ++l) {
      if (!(f[l] == 0 || f[l] == half + 1)) continue;
      if (lmm[l] > a.threshold) continue;
      const u32 old = std::atomic_ref<u32>(*a.entrycount).fetch_add(1u);
      if (old < a.entry_capacity) {
        a.mm_count[old] = static_cast<u16>(lmm[l]);
        a.direction[old] = half == 0 ? '+' : '-';
        a.mm_loci[old] = locus[l];
      }
    }
  }
}

}  // namespace

void comparer_swar_post_avx2(const comparer_swar_args& a, usize first, usize nlanes) {
  // Lanes past locicnts are idle (the ND-range is rounded up to the group
  // size); clip them so quads only cover live work-items.
  const usize end = first >= a.locicnts
                        ? first
                        : first + std::min<usize>(nlanes, a.locicnts - first);
  usize i = first;
  for (; i + 4 <= end; i += 4) {
    const usize gid[4] = {i, i + 1, i + 2, i + 3};
    avx2_quad(a, gid);
  }
  lanes_scalar(a, i, end - i);
}

#else  // !__x86_64__

void comparer_swar_post_avx2(const comparer_swar_args& a, usize first, usize nlanes) {
  lanes_scalar(a, first, nlanes);
}

#endif

}  // namespace detail
}  // namespace cof
