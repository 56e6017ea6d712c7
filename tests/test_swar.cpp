// opt6 tests: swar_pack against the per-base reference packer; the
// packed-word finder against the char finder (every PAM character x every
// reference byte class, every chunk length around the 32/64 word multiples,
// every facade, counting and direct), and its lane rows' block append
// around the block size for every work-group shape at every SIMD tier; the
// SWAR comparer's exhaustive IUPAC x mismatch-count equivalence against the
// paper's base comparer (the IUPAC Boolean chain) on every reference byte
// class, ragged-tail fuzz across pattern lengths on the per-item kernel and
// the host's lane rows, each on a one-guide batch; the dispatch at every
// tier the host has (scalar, AVX2, AVX-512); the comparer's shared window
// across several guides at every tier against per-query base; its lane
// body called directly at every tier (every flag pattern of a quad, the
// padding lanes of a short oct, ragged row ends, the capacity clamp)
// against base; and engine-level byte-identity of opt6 output with base
// across all four backends and queue counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/engine_stream.hpp"
#include "core/kernels.hpp"
#include "core/kernels_swar.hpp"
#include "core/pattern.hpp"
#include "core/pipeline.hpp"
#include "genome/synth.hpp"
#include "util/cpufeat.hpp"
#include "util/rng.hpp"
#include "xpu/device.hpp"

namespace {

using namespace cof;
namespace fs = std::filesystem;

xpu::device& dev() {
  static xpu::device d("swar", 1);
  return d;
}

/// RAII cap on the SIMD tier, so a failing assertion cannot leak it into
/// later tests.
struct tier_guard {
  util::simd_tier prev;
  explicit tier_guard(util::simd_tier cap) : prev(util::tier_cap()) { util::cap_tier(cap); }
  ~tier_guard() { util::cap_tier(prev); }
};

/// Every tier the host runs, scalar first: the caps under which the lane
/// bodies and the executor's dispatch are tested.
std::vector<util::simd_tier> host_tiers() {
  std::vector<util::simd_tier> tiers;
  for (int t = 0; t <= static_cast<int>(util::host_tier()); ++t) {
    tiers.push_back(static_cast<util::simd_tier>(t));
  }
  return tiers;
}

/// The tier in force, for failure messages.
std::string tier_label() { return std::string(" tier=") + util::tier_name(util::lane_tier()); }

struct cmp_run {
  std::vector<u16> mm;
  std::vector<char> dir;
  std::vector<u32> loci;

  bool operator==(const cmp_run& o) const {
    return mm == o.mm && dir == o.dir && loci == o.loci;
  }
};

cmp_run canonicalise(const std::vector<u16>& mm, const std::vector<char>& dir,
                     const std::vector<u32>& mloci, u32 count) {
  cmp_run r;
  std::vector<std::tuple<u32, char, u16>> z;
  for (u32 i = 0; i < count; ++i) z.emplace_back(mloci[i], dir[i], mm[i]);
  std::sort(z.begin(), z.end());
  for (auto& [l, d, m] : z) {
    r.loci.push_back(l);
    r.dir.push_back(d);
    r.mm.push_back(m);
  }
  return r;
}

/// Reference path: the paper's base comparer (the IUPAC Boolean chain)
/// through the ordinary argument block, launched two-phase as every facade
/// launches it outside counting (fibers stay covered by test_executor).
cmp_run run_base(const std::string& chunk, const std::vector<u32>& loci,
                 const std::vector<char>& flags, const device_pattern& query,
                 u16 threshold, usize wg = 8) {
  const u32 n = static_cast<u32>(loci.size());
  const usize cap = static_cast<usize>(n) * 2;
  std::vector<u16> mm(cap, 0);
  std::vector<char> dir(cap, 0);
  std::vector<u32> mloci(cap, 0);
  u32 count = 0;

  xpu::launch_config cfg;
  cfg.global[0] = util::round_up<usize>(n, wg);
  cfg.local[0] = wg;
  cfg.local_mem_bytes = query.device_chars() * (1 + sizeof(i32)) + 128;
  cfg.uses_barrier = true;
  cfg.single_leading_barrier = true;
  comparer_args a;
  a.locicnts = n;
  a.chr = chunk.data();
  a.loci = loci.data();
  a.flag = flags.data();
  a.comp = query.data();
  a.comp_index = query.index_data();
  a.plen = query.plen;
  a.threshold = threshold;
  a.mm_count = mm.data();
  a.direction = dir.data();
  a.mm_loci = mloci.data();
  a.entrycount = &count;
  dev().run(cfg, [&](xpu::xitem& it) {
    char* base = it.local_mem_base();
    const usize idx_off = util::round_up<usize>(query.device_chars(), 8);
    a.l_comp = base;
    a.l_comp_index = reinterpret_cast<i32*>(base + idx_off);
    comparer_dispatch<direct_mem>(comparer_variant::base, it, a);
  });
  return canonicalise(mm, dir, mloci, count);
}

/// A batched launch's entries, each (query, locus, direction, mismatches),
/// sorted.
using multi_entries = std::vector<std::tuple<u16, u32, char, u16>>;

/// The opt6 batched comparer over `queries` (one length) with per-query
/// thresholds: the per-item kernel, or the executor's lane rows.
multi_entries run_multi_opt6(const std::string& chunk, const std::vector<u32>& loci,
                             const std::vector<char>& flags,
                             const std::vector<device_pattern>& queries,
                             const std::vector<u16>& thresholds, usize wg, bool via_lanes,
                             xpu::launch_stats* stats_out = nullptr) {
  const u32 n = static_cast<u32>(loci.size());
  const usize cap = static_cast<usize>(n) * 2 * queries.size();
  std::vector<u16> mm(cap);
  std::vector<char> dir(cap);
  std::vector<u32> mloci(cap);
  std::vector<u16> mquery(cap);
  u32 count = 0;
  const auto sref = swar_pack(chunk);
  std::vector<util::u64> swar;
  for (const auto& q : queries) swar.insert(swar.end(), q.swar.begin(), q.swar.end());

  xpu::launch_config cfg;
  cfg.global[0] = util::round_up<usize>(n, wg);
  cfg.local[0] = wg;
  cfg.local_mem_bytes = swar.size() * sizeof(util::u64);
  cfg.uses_barrier = true;
  cfg.single_leading_barrier = true;
  comparer_multi_swar_args a;
  a.locicnts = n;
  a.chr_packed2 = sref.packed2.data();
  a.chr_amb2 = sref.amb2.data();
  a.loci = loci.data();
  a.flag = flags.data();
  a.comp_swar = swar.data();
  a.thresholds = thresholds.data();
  a.nqueries = static_cast<u32>(queries.size());
  a.plen = queries[0].plen;
  a.swar_words = queries[0].swar_words;
  a.mm_count = mm.data();
  a.direction = dir.data();
  a.mm_loci = mloci.data();
  a.mm_query = mquery.data();
  a.entrycount = &count;
  a.entry_capacity = static_cast<u32>(cap);
  auto item = [&](xpu::xitem& it) {
    comparer_multi_swar_args b = a;
    b.l_comp_swar = reinterpret_cast<util::u64*>(it.local_mem_base());
    comparer_multi_swar_kernel<direct_mem>(it, b);
  };
  xpu::launch_stats stats;
  if (via_lanes) {
    stats = dev().run_lanes(cfg, item, [&](const xpu::xitem& first, usize nlanes) {
      comparer_multi_swar_args b = a;
      b.l_comp_swar = swar.data();
      comparer_multi_swar_lanes(b, first.get_global_id(0), nlanes);
    });
  } else {
    stats = dev().run(cfg, item);
  }
  if (stats_out != nullptr) *stats_out = stats;
  multi_entries out;
  for (u32 i = 0; i < count; ++i) out.emplace_back(mquery[i], mloci[i], dir[i], mm[i]);
  std::sort(out.begin(), out.end());
  return out;
}

/// opt6 over one guide: the batched comparer with a batch of one, its
/// entries as cmp_run. `via_lanes` launches through the executor's
/// lane-batched row body (the production dispatch); otherwise the per-item
/// kernel runs.
cmp_run run_opt6(const std::string& chunk, const std::vector<u32>& loci,
                 const std::vector<char>& flags, const device_pattern& query,
                 u16 threshold, usize wg = 8, bool via_lanes = false,
                 xpu::launch_stats* stats_out = nullptr) {
  cmp_run r;
  for (const auto& [q, l, d, m] :
       run_multi_opt6(chunk, loci, flags, {query}, {threshold}, wg, via_lanes, stats_out)) {
    r.loci.push_back(l);
    r.dir.push_back(d);
    r.mm.push_back(m);
  }
  return r;
}

/// opt6 on both dispatch paths, the per-item kernel and the lane rows,
/// against the base reference.
void expect_opt6_matches_base(const std::string& chunk, const std::vector<u32>& loci,
                              const std::vector<char>& flags,
                              const device_pattern& query, u16 threshold,
                              const std::string& where) {
  const auto want = run_base(chunk, loci, flags, query, threshold);
  ASSERT_EQ(run_opt6(chunk, loci, flags, query, threshold), want)
      << where << " per-item";
  ASSERT_EQ(run_opt6(chunk, loci, flags, query, threshold, 8, /*via_lanes=*/true), want)
      << where << " lanes";
}

/// Concrete bases only.
std::string random_chunk(util::rng& rng, usize len) {
  std::string s;
  for (usize i = 0; i < len; ++i) s += "ACGT"[rng.next_below(4)];
  return s;
}

/// All loci valid for (chunk, plen), random flags.
void random_loci(util::rng& rng, usize chunk_len, u32 plen, usize count,
                 std::vector<u32>& loci, std::vector<char>& flags) {
  loci.clear();
  flags.clear();
  const u32 span = static_cast<u32>(chunk_len) - plen + 1;
  for (usize i = 0; i < count; ++i) {
    loci.push_back(static_cast<u32>(rng.next_below(span)));
    flags.push_back(static_cast<char>(rng.next_below(3)));
  }
  std::sort(loci.begin(), loci.end());
}

constexpr const char* kIupac = "ACGTRYSWKMBDHVN";

/// Every class of reference byte: the upper-case IUPAC codes, lower case and
/// non-nucleotide bytes.
const std::string kRefClasses = std::string(kIupac) + "acgtnrk?X-";

/// A reference drawn from every byte class: a concrete base half the time,
/// otherwise any of kRefClasses.
std::string random_reference(util::rng& rng, usize len) {
  std::string s;
  for (usize i = 0; i < len; ++i) {
    s += rng.next_bool(0.5) ? "ACGT"[rng.next_below(4)]
                            : kRefClasses[rng.next_below(kRefClasses.size())];
  }
  return s;
}

// ---------------------------------------------------------------------------
// swar_pack: bit for bit against the per-base packer it replaced.
// ---------------------------------------------------------------------------

/// The original one-switch-per-base packer, kept as the reference.
swar_ref reference_pack(std::string_view seq) {
  swar_ref r;
  r.bases = seq.size();
  const usize nwords = (seq.size() + 31) / 32 + 2;
  r.packed2.assign(nwords, 0);
  r.amb2.assign(nwords, 0);
  for (usize i = 0; i < seq.size(); ++i) {
    const usize w = i >> 5;
    const u32 bit = 2 * (static_cast<u32>(i) & 31u);
    util::u64 code;
    switch (seq[i]) {
      case 'A': code = 0; break;
      case 'C': code = 1; break;
      case 'G': code = 2; break;
      case 'T': code = 3; break;
      default:
        r.amb2[w] |= util::u64{1} << bit;
        continue;
    }
    r.packed2[w] |= code << bit;
  }
  return r;
}

void expect_same_pack(std::string_view seq) {
  const swar_ref got = swar_pack(seq);
  const swar_ref want = reference_pack(seq);
  ASSERT_EQ(got.bases, want.bases);
  ASSERT_EQ(got.packed2, want.packed2) << "len=" << seq.size();
  ASSERT_EQ(got.amb2, want.amb2) << "len=" << seq.size();
  // The two padding words the window fetch may read stay zero.
  const usize n = got.packed2.size();
  ASSERT_EQ(n, swar_words_for(seq.size()));
  ASSERT_EQ(got.packed2[n - 1] | got.packed2[n - 2] | got.amb2[n - 1] | got.amb2[n - 2], 0u)
      << "len=" << seq.size();
}

/// Random bytes drawn from upper- and lower-case IUPAC codes and a few
/// non-nucleotide bytes, with N runs spliced in.
std::string random_text(util::rng& rng, usize len) {
  static const std::string alpha = std::string(kIupac) + "acgtnryk?X-\x01\xff";
  std::string s;
  while (s.size() < len) {
    if (rng.next_below(8) == 0) {
      s.append(std::min<usize>(len - s.size(), 1 + rng.next_below(40)), 'N');
    } else {
      s += alpha[rng.next_below(alpha.size())];
    }
  }
  return s;
}

// On both pack paths: the AVX2 pack (32 bases per step, the scalar
// pack_word for the tail), which the AVX2 and AVX-512 tiers run, and the
// scalar pack under a scalar cap.
TEST(SwarPack, MatchesPerBaseReference) {
  for (const util::simd_tier cap : {util::simd_tier::avx512, util::simd_tier::scalar}) {
    tier_guard pin(cap);
    SCOPED_TRACE(tier_label());
    util::rng rng(611);
    for (usize len = 0; len <= 97; ++len) {
      for (int rep = 0; rep < 4; ++rep) expect_same_pack(random_text(rng, len));
    }
    // One device-sized chunk: mostly ACGT with the same exceptions mixed in.
    std::string big = random_chunk(rng, usize{4} << 20);
    const std::string noise = random_text(rng, 1 << 16);
    for (usize i = 0; i < noise.size(); ++i) big[rng.next_below(big.size())] = noise[i];
    expect_same_pack(big);
    // Every byte value at each of the 32 lanes of a full word: 8192 words
    // in one chunk.
    const std::string word = random_chunk(rng, 32);
    std::string lanes;
    for (usize lane = 0; lane < 32; ++lane) {
      for (int b = 0; b < 256; ++b) {
        lanes += word;
        lanes[lanes.size() - 32 + lane] = static_cast<char>(b);
      }
    }
    expect_same_pack(lanes);
    // ... and at each position of a tail of 1-31 bases after a full word.
    for (usize tail = 1; tail < 32; ++tail) {
      std::string seq = random_chunk(rng, 32 + tail);
      for (usize at = 32; at < seq.size(); ++at) {
        const char keep = seq[at];
        for (int b = 0; b < 256; ++b) {
          seq[at] = static_cast<char>(b);
          expect_same_pack(seq);
        }
        seq[at] = keep;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-word finder: compared as sorted (locus, flag) sets against the char
// finder, since append order across work-items is unspecified.
// ---------------------------------------------------------------------------

using hit_set = std::vector<std::pair<u32, char>>;

hit_set sorted_hits(const std::vector<u32>& loci, const std::vector<char>& flags,
                    usize count) {
  hit_set h;
  for (usize i = 0; i < count; ++i) h.emplace_back(loci[i], flags[i]);
  std::sort(h.begin(), h.end());
  return h;
}

/// Reference: the per-position char finder (the Boolean chain), one
/// work-item per start position.
hit_set run_char_finder(const std::string& chunk, const device_pattern& pat,
                        usize wg = 8) {
  if (chunk.size() < pat.plen) return {};
  const u32 chrsize = static_cast<u32>(chunk.size() - pat.plen + 1);
  std::vector<u32> loci(chrsize);
  std::vector<char> flags(chrsize);
  u32 count = 0;
  xpu::launch_config cfg;
  cfg.global[0] = util::round_up<usize>(chrsize, wg);
  cfg.local[0] = wg;
  const usize idx_off = util::round_up<usize>(pat.device_chars(), 8);
  cfg.local_mem_bytes = idx_off + pat.index.size() * sizeof(i32);
  cfg.uses_barrier = true;
  cfg.single_leading_barrier = true;
  finder_args a;
  a.chr = chunk.data();
  a.pat = pat.data();
  a.pat_index = pat.index_data();
  a.chrsize = chrsize;
  a.plen = pat.plen;
  a.loci = loci.data();
  a.flag = flags.data();
  a.entrycount = &count;
  dev().run(cfg, [&](xpu::xitem& it) {
    finder_args b = a;
    b.l_pat = it.local_mem_base();
    b.l_pat_index = reinterpret_cast<i32*>(it.local_mem_base() + idx_off);
    finder_kernel<direct_mem>(it, b);
  });
  return sorted_hits(loci, flags, count);
}

/// How run_packed_finder launches: the work-group size, the per-item
/// kernel or the executor's lane rows (finder_swar_lanes), and the hit
/// arrays' capacity (default: one slot per start position).
struct finder_launch {
  usize wg = 4;
  bool via_lanes = false;
  u32 capacity = ~u32{0};
};

/// One packed-word finder launch: the stored hits, the append counter and
/// the executor's stats.
struct finder_result {
  hit_set hits;
  u32 count = 0;
  xpu::launch_stats stats;
};

finder_result launch_packed_finder(const std::string& chunk, const device_pattern& pat,
                                   const finder_launch& how) {
  finder_result r;
  if (chunk.size() < pat.plen) return r;
  const swar_ref words = swar_pack(chunk);
  const u32 chrsize = static_cast<u32>(chunk.size() - pat.plen + 1);
  const usize cap = std::min<usize>(chrsize, how.capacity);
  std::vector<u32> loci(cap);
  std::vector<char> flags(cap);
  xpu::launch_config cfg;
  cfg.global[0] = util::round_up<usize>(swar_finder_items(chrsize), how.wg);
  cfg.local[0] = how.wg;
  finder_swar_args a;
  a.chr_packed2 = words.packed2.data();
  a.chr_amb2 = words.amb2.data();
  a.pat_mask = pat.mask_data();
  a.pat_index = pat.index_data();
  a.chrsize = chrsize;
  a.plen = pat.plen;
  a.loci = loci.data();
  a.flag = flags.data();
  a.entrycount = &r.count;
  a.entry_capacity = static_cast<u32>(cap);
  auto item = [&](xpu::xitem& it) { finder_swar_kernel<direct_mem>(it, a); };
  if (how.via_lanes) {
    r.stats = dev().run_lanes(cfg, item, [&](const xpu::xitem& first, usize nlanes) {
      finder_swar_lanes(a, first.get_global_id(0), nlanes);
    });
  } else {
    r.stats = dev().run(cfg, item);
  }
  r.hits = sorted_hits(loci, flags, std::min<usize>(r.count, cap));
  return r;
}

/// The packed-word finder's hits over swar_pack(chunk), barrier-free.
hit_set run_packed_finder(const std::string& chunk, const device_pattern& pat,
                          usize wg = 4) {
  return launch_packed_finder(chunk, pat, {.wg = wg}).hits;
}

// Every PAM character against every class of reference byte — the four
// bases, every degenerate IUPAC code, 'N', lower case and non-nucleotide
// bytes — on both strands: "NN"+c puts c on the forward strand at offset 2
// and its complement on the reverse strand at offset 0; c+"GN" adds a
// second PAM position per strand.
TEST(SwarFinder, EveryPamCharAgainstEveryReferenceClass) {
  util::rng rng(612);
  for (const char* c = kIupac; *c != '\0'; ++c) {
    for (const char r : kRefClasses) {
      const std::string pool = std::string("ACGT") + r + r + r;
      std::string chunk;
      for (int i = 0; i < 83; ++i) chunk += pool[rng.next_below(pool.size())];
      for (const std::string& p : {std::string("NN") + *c, *c + std::string("GN")}) {
        const auto pat = make_pattern(p);
        ASSERT_EQ(run_packed_finder(chunk, pat), run_char_finder(chunk, pat))
            << "pam=" << p << " ref=" << static_cast<int>(r);
      }
    }
  }
}

/// A random PAM-bearing pattern: mostly 'N', otherwise any IUPAC code.
std::string random_pam(util::rng& rng, u32 plen) {
  std::string p;
  for (u32 i = 0; i < plen; ++i) {
    p += rng.next_below(3) == 0 ? kIupac[rng.next_below(15)] : 'N';
  }
  return p;
}

// Chunk lengths 1..97 (around the 32/64 word multiples: ragged last work-item,
// a window reaching into the padding words) and pattern lengths 1..40, on a
// mixed IUPAC / lower-case / N-run reference.
TEST(SwarFinder, ChunkLengthsAndPatternLengths) {
  util::rng rng(613);
  auto check = [&](usize len, u32 plen) {
    if (plen > len) return;
    const std::string chunk = random_text(rng, len);
    const auto pat = make_pattern(random_pam(rng, plen));
    ASSERT_EQ(run_packed_finder(chunk, pat), run_char_finder(chunk, pat))
        << "len=" << len << " pattern=" << pat.seq;
  };
  for (usize len = 1; len <= 97; ++len) {
    for (u32 plen : {1u, 3u, 23u, 32u, 40u}) check(len, plen);
  }
  for (u32 plen = 1; plen <= 40; ++plen) {
    for (usize len : {usize{plen}, usize{plen} + 1, usize{32}, usize{33}, usize{63},
                      usize{64}, usize{65}, usize{96}, usize{97}}) {
      check(len, plen);
    }
  }
}

/// One facade's finder output as a sorted (locus, flag) set.
hit_set facade_hits(backend_kind backend, comparer_variant variant, bool counting,
                    const std::string& chunk, const device_pattern& pat,
                    prof::profiler* profiler = nullptr) {
  pipeline_options po;
  po.variant = variant;
  po.counting = counting;
  po.profiler = profiler;
  std::unique_ptr<device_pipeline> pipe;
  switch (backend) {
    case backend_kind::opencl: pipe = make_opencl_pipeline(po); break;
    case backend_kind::sycl_usm: pipe = make_sycl_usm_pipeline(po); break;
    case backend_kind::sycl_twobit: pipe = make_sycl_twobit_pipeline(po); break;
    default: pipe = make_sycl_pipeline(po); break;
  }
  pipe->load_chunk(chunk);
  const u32 n = pipe->run_finder(pat);
  return sorted_hits(pipe->read_loci(), pipe->read_flags(), n);
}

// Every facade's opt6 finder, counting and direct, equals the char finder.
TEST(SwarFinder, AllFacadesCountingAndDirect) {
  util::rng rng(614);
  std::string chunk = random_chunk(rng, 5000);
  const std::string noise = random_text(rng, 400);
  for (usize i = 0; i < noise.size(); ++i) chunk[rng.next_below(chunk.size())] = noise[i];
  for (const char* p : {"NNNNNNNNNNNNNNNNNNNNNRG", "TTTVNNNNNNNNNNNNNNNNNNNNN",
                        "NNNNNNNNNNNNNNNNNNNNNNG", "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNGRRT"}) {
    const auto pat = make_pattern(p);
    const hit_set want = run_char_finder(chunk, pat);
    ASSERT_FALSE(want.empty()) << p;
    for (backend_kind backend : {backend_kind::sycl, backend_kind::opencl,
                                 backend_kind::sycl_usm, backend_kind::sycl_twobit}) {
      for (bool counting : {false, true}) {
        prof::profiler prof;
        EXPECT_EQ(facade_hits(backend, comparer_variant::opt6, counting, chunk, pat,
                              &prof),
                  want)
            << "pattern=" << p << " backend=" << backend_name(backend)
            << " counting=" << counting;
      }
    }
  }
}

// The per-item kernel and the lane rows at every tier against the char
// finder, for chunk lengths around the multiples of 32 (a ragged last
// work-item) and of the lane body's append block (kSwarFinderAppendBlock
// work-items), leaving 0-7 full work-items after a block's last oct (and
// 0-3 after its last quad), and for work-group sizes that do not divide
// the block (7), equal or exceed it (256, 1024) or fall below it (4). A
// PAM position past the first word (k >= 32) is covered by the 40-base
// pattern; an all-N pattern hits every start position on both strands
// (every work-item's 32 hits stored at once) and NB nearly every one on
// one strand or both.
TEST(SwarFinderLanes, BlockAppendMatchesCharFinder) {
  util::rng rng(615);
  constexpr usize kBlockBases = kSwarFinderAppendBlock * kSwarFinderSpan;
  const std::vector<std::string> pams = {
      "NNNNNNNNNNNNNNNNNNNNNRG", "TTTVNNNNNNNNNNNNNNNNNNNNN",
      "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNGRRT", "NNNNNNNNNNNNNNNNNNNNNNN",
      "NNNNNNNNNNNNNNNNNNNNNNB"};
  for (const std::string& pam : pams) {
    const auto pat = make_pattern(pam);
    // Full work-items for base-1, base and base+1 start positions: 0 1 1,
    // 1 2 2, 3 4 4, 5 6 6, 63 64 64 and 128 129 129.
    for (const usize base : {usize{32}, usize{64}, usize{128}, usize{192}, kBlockBases,
                             2 * kBlockBases + 32}) {
      for (const usize len : {base - 1, base, base + 1}) {
        const usize chunk_len = len + pat.plen - 1;  // `len` start positions
        std::string chunk = random_text(rng, chunk_len);
        for (usize i = 0; i < chunk.size(); i += 3) chunk[i] = "ACGT"[rng.next_below(4)];
        const hit_set want = run_char_finder(chunk, pat);
        for (const usize wg : {usize{4}, usize{7}, usize{256}, usize{1024}}) {
          const std::string where =
              "pam=" + pam + " len=" + std::to_string(len) + " wg=" + std::to_string(wg);
          const auto per_item = launch_packed_finder(chunk, pat, {.wg = wg});
          ASSERT_EQ(per_item.hits, want) << where << " per-item";
          for (const util::simd_tier tier : host_tiers()) {
            tier_guard pin(tier);
            const auto lanes = launch_packed_finder(chunk, pat, {.wg = wg, .via_lanes = true});
            ASSERT_EQ(lanes.hits, want) << where << " lanes" << tier_label();
            ASSERT_EQ(lanes.count, want.size()) << where << tier_label();
          }
        }
      }
    }
  }
}

// A capacity below the demand: the block append still advances the counter
// to the true demand and stores only hits of the full set, below the
// capacity (the arrays are sized to it, so a store past it would be caught
// by the sanitizer builds).
TEST(SwarFinderLanes, CapacityClampKeepsTrueDemand) {
  util::rng rng(616);
  const std::string chunk = random_chunk(rng, 9000);
  const auto pat = make_pattern("NNNNNNNNNNNNNNNNNNNNNGG");
  const hit_set all = run_char_finder(chunk, pat);
  ASSERT_GT(all.size(), 40u);
  for (const util::simd_tier tier : host_tiers()) {
    tier_guard pin(tier);
    for (const bool via_lanes : {false, true}) {
      const std::string where = "lanes=" + std::to_string(via_lanes) + tier_label();
      const u32 cap = static_cast<u32>(all.size() / 3);
      const auto r =
          launch_packed_finder(chunk, pat, {.wg = 256, .via_lanes = via_lanes, .capacity = cap});
      EXPECT_EQ(r.count, all.size()) << where;
      EXPECT_EQ(r.hits.size(), cap) << where;
      for (const auto& h : r.hits) {
        EXPECT_TRUE(std::binary_search(all.begin(), all.end(), h)) << h.first << where;
      }
    }
  }
}

// The executor runs the lane rows at an AVX2 or AVX-512 tier and the
// per-item kernel at the scalar one; every tier gives the same hits.
TEST(SwarFinderLanes, DispatchFollowsTheHost) {
  util::rng rng(617);
  const std::string chunk = random_reference(rng, 5000);
  const auto pat = make_pattern("NNNNNNNNNNNNNNNNNNNNNRG");
  const hit_set want = run_char_finder(chunk, pat);
  for (const util::simd_tier tier : host_tiers()) {
    tier_guard pin(tier);
    const auto got = launch_packed_finder(chunk, pat, {.wg = 64, .via_lanes = true});
    EXPECT_EQ(got.hits, want) << tier_label();
    EXPECT_EQ(got.stats.lanes_dispatch, util::simd_lanes_enabled()) << tier_label();
  }
}

// ---------------------------------------------------------------------------
// Exhaustive equivalence: every IUPAC pattern base x every mismatch count.
// ---------------------------------------------------------------------------

// For each of the 15 IUPAC codes placed at every position of a short query,
// and for every threshold 0..plen, opt6 must report exactly the base hits
// (same loci, strands and mismatch counts). The reference chunk draws from
// every reference byte class, so each concrete-code deny mask and the 'N'
// mask that scores every ambiguous byte are all exercised.
TEST(SwarEquivalence, AllIupacBasesAllThresholds) {
  util::rng rng(601);
  const std::string chunk = random_reference(rng, 96);
  std::vector<u32> loci;
  std::vector<char> flags;
  constexpr u32 kPlen = 9;
  random_loci(rng, chunk.size(), kPlen, 24, loci, flags);

  for (const char* c = kIupac; *c != '\0'; ++c) {
    for (u32 pos = 0; pos < kPlen; ++pos) {
      std::string q(kPlen, 'A');
      q[pos] = *c;
      const auto query = make_pattern(q);
      for (u16 threshold = 0; threshold <= kPlen; ++threshold) {
        ASSERT_NO_FATAL_FAILURE(expect_opt6_matches_base(
            chunk, loci, flags, query, threshold,
            std::string("base=") + *c + " pos=" + std::to_string(pos) +
                " threshold=" + std::to_string(threshold)));
      }
    }
  }
}

// Dense all-ambiguous query: every position a different IUPAC code, so one
// window evaluation mixes concrete and ambiguous reference bytes under many
// different deny masks at once.
TEST(SwarEquivalence, MixedIupacQuery) {
  util::rng rng(602);
  const std::string chunk = random_reference(rng, 128);
  const std::string q = "ACGTRYSWKMBDHVNRYN";  // plen 18
  const auto query = make_pattern(q);
  std::vector<u32> loci;
  std::vector<char> flags;
  random_loci(rng, chunk.size(), query.plen, 40, loci, flags);
  for (u16 threshold : {u16{0}, u16{3}, u16{9}, u16{18}}) {
    ASSERT_NO_FATAL_FAILURE(expect_opt6_matches_base(
        chunk, loci, flags, query, threshold,
        "threshold=" + std::to_string(threshold)));
  }
}

// ---------------------------------------------------------------------------
// Ragged-tail fuzz: every pattern length around the 32-base word boundary.
// ---------------------------------------------------------------------------

// plen 1..40 crosses the one-word/two-word boundary (32) and exercises every
// tail length of the active mask; random IUPAC queries and random loci.
TEST(SwarFuzz, RaggedTailLengths) {
  util::rng rng(603);
  for (u32 plen = 1; plen <= 40; ++plen) {
    const std::string chunk = random_reference(rng, plen + 160);
    std::string q;
    for (u32 i = 0; i < plen; ++i) q += kIupac[rng.next_below(15)];
    const auto query = make_pattern(q);
    std::vector<u32> loci;
    std::vector<char> flags;
    random_loci(rng, chunk.size(), plen, 32, loci, flags);
    const u16 threshold = static_cast<u16>(rng.next_below(plen + 1));
    ASSERT_NO_FATAL_FAILURE(expect_opt6_matches_base(
        chunk, loci, flags, query, threshold,
        "plen=" + std::to_string(plen) + " threshold=" + std::to_string(threshold)));
  }
}

// Loci landing on every in-word offset (0..31) so the two-word shift-combine
// window fetch is exercised at each shift amount, including shift 0.
TEST(SwarFuzz, EveryWindowShift) {
  util::rng rng(604);
  const std::string chunk = random_chunk(rng, 96);
  const auto query = make_pattern("GGCCGACCTGTCGCTGACGCNRG");
  std::vector<u32> loci;
  std::vector<char> flags;
  for (u32 l = 0; l < 64; ++l) {
    loci.push_back(l);
    flags.push_back(static_cast<char>(l % 3));
  }
  for (u16 threshold : {u16{5}, u16{12}, u16{23}}) {
    const auto want = run_base(chunk, loci, flags, query, threshold);
    const auto got = run_opt6(chunk, loci, flags, query, threshold);
    ASSERT_EQ(got, want) << "threshold=" << threshold;
  }
}

// ---------------------------------------------------------------------------
// Dispatch paths: the lane rows at every tier vs the per-item kernel.
// ---------------------------------------------------------------------------

// The lane-batched row body must match the per-item kernel bit for bit at
// every tier, and the executor must take the lane path exactly when the
// tier in force has one.
TEST(SwarDispatch, LanesMatchPerItem) {
  util::rng rng(605);
  const std::string chunk = random_reference(rng, 256);
  const auto query = make_pattern("GGCCGACCTGTCGCTGACGCNRG");
  std::vector<u32> loci;
  std::vector<char> flags;
  random_loci(rng, chunk.size(), query.plen, 120, loci, flags);

  const auto per_item = run_opt6(chunk, loci, flags, query, 6, 16, false);
  for (const util::simd_tier tier : host_tiers()) {
    tier_guard pin(tier);
    xpu::launch_stats stats;
    EXPECT_EQ(run_opt6(chunk, loci, flags, query, 6, 16, true, &stats), per_item)
        << tier_label();
    EXPECT_EQ(stats.lanes_dispatch, util::simd_lanes_enabled()) << tier_label();
  }
}

// A scalar cap (what COF_FORCE_SCALAR sets) pins the per-item path: the
// launch reports scalar dispatch, and every tier's results are identical.
TEST(SwarDispatch, ForcedScalarMatchesSimd) {
  util::rng rng(606);
  const std::string chunk = random_reference(rng, 200);
  const auto query = make_pattern("ACGTRYSWKMBDHVNACGTNGG");
  std::vector<u32> loci;
  std::vector<char> flags;
  random_loci(rng, chunk.size(), query.plen, 64, loci, flags);

  cmp_run scalar;
  {
    tier_guard pin(util::simd_tier::scalar);
    EXPECT_FALSE(util::simd_lanes_enabled());
    xpu::launch_stats stats;
    scalar = run_opt6(chunk, loci, flags, query, 8, 16, true, &stats);
    EXPECT_FALSE(stats.lanes_dispatch);
  }
  for (const util::simd_tier tier : host_tiers()) {
    tier_guard pin(tier);
    EXPECT_EQ(run_opt6(chunk, loci, flags, query, 8, 16, true), scalar) << tier_label();
  }
}

// ---------------------------------------------------------------------------
// Batched comparer: per-item kernel = lane rows = per-query base.
// ---------------------------------------------------------------------------

/// The reference: one base launch per query, tagged with its index.
multi_entries run_multi_base(const std::string& chunk, const std::vector<u32>& loci,
                             const std::vector<char>& flags,
                             const std::vector<device_pattern>& queries,
                             const std::vector<u16>& thresholds) {
  multi_entries out;
  for (usize q = 0; q < queries.size(); ++q) {
    const cmp_run r = run_base(chunk, loci, flags, queries[q], thresholds[q]);
    for (usize i = 0; i < r.loci.size(); ++i) {
      out.emplace_back(static_cast<u16>(q), r.loci[i], r.dir[i], r.mm[i]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The entries of a threshold-65535 run that a run at threshold `t` gives:
/// those with at most `t` mismatches.
multi_entries within(const multi_entries& every, u16 t) {
  multi_entries out;
  for (const auto& e : every) {
    if (std::get<3>(e) <= t) out.push_back(e);
  }
  return out;
}

/// A random query: 'N' half the time, otherwise any IUPAC code, so low
/// thresholds still find sites.
std::string random_query(util::rng& rng, u32 plen) {
  std::string q;
  for (u32 i = 0; i < plen; ++i) q += rng.next_bool(0.5) ? 'N' : kIupac[rng.next_below(15)];
  return q;
}

// 1, 3 and 8 queries; pattern lengths at the word (32) and register-block
// (4 words = 128) boundaries; thresholds 0, plen and a mix across queries;
// references drawn from every byte class.
TEST(SwarMulti, PerItemAndLanesMatchPerQueryBase) {
  util::rng rng(618);
  for (const u32 plen : {3u, 23u, 32u, 33u, 64u, 65u, 129u}) {
    const std::string chunk = random_reference(rng, plen + 300);
    std::vector<u32> loci;
    std::vector<char> flags;
    random_loci(rng, chunk.size(), plen, 61, loci, flags);
    for (const usize nq : {usize{1}, usize{3}, usize{8}}) {
      std::vector<device_pattern> queries;
      for (usize q = 0; q < nq; ++q) queries.push_back(make_pattern(random_query(rng, plen)));
      std::vector<u16> mixed;
      for (usize q = 0; q < nq; ++q) mixed.push_back(static_cast<u16>((plen * q) / (2 * nq)));
      for (const auto& thresholds :
           {std::vector<u16>(nq, 0), std::vector<u16>(nq, static_cast<u16>(plen)), mixed}) {
        const std::string where = "plen=" + std::to_string(plen) +
                                  " queries=" + std::to_string(nq) +
                                  " threshold0=" + std::to_string(thresholds[0]);
        const auto want = run_multi_base(chunk, loci, flags, queries, thresholds);
        ASSERT_EQ(run_multi_opt6(chunk, loci, flags, queries, thresholds, 8, false), want)
            << where << " per-item";
        for (const util::simd_tier tier : host_tiers()) {
          tier_guard pin(tier);
          ASSERT_EQ(run_multi_opt6(chunk, loci, flags, queries, thresholds, 8, true), want)
              << where << " lanes" << tier_label();
        }
      }
    }
  }
}

// The executor takes the batched comparer's lane rows at an AVX2 or
// AVX-512 tier and the per-item kernel at the scalar one, with the same
// entries.
TEST(SwarMulti, DispatchFollowsTheHost) {
  util::rng rng(619);
  const std::string chunk = random_reference(rng, 400);
  std::vector<u32> loci;
  std::vector<char> flags;
  random_loci(rng, chunk.size(), 23, 90, loci, flags);
  std::vector<device_pattern> queries;
  for (int q = 0; q < 3; ++q) queries.push_back(make_pattern(random_query(rng, 23)));
  const std::vector<u16> thresholds = {4, 8, 12};
  const auto want = run_multi_base(chunk, loci, flags, queries, thresholds);
  for (const util::simd_tier tier : host_tiers()) {
    tier_guard pin(tier);
    xpu::launch_stats stats;
    EXPECT_EQ(run_multi_opt6(chunk, loci, flags, queries, thresholds, 16, true, &stats), want)
        << tier_label();
    EXPECT_EQ(stats.lanes_dispatch, util::simd_lanes_enabled()) << tier_label();
  }
}

// ---------------------------------------------------------------------------
// The batched comparer's lane body, called directly.
// ---------------------------------------------------------------------------

/// What one call of comparer_multi_swar_lanes over every locus returned.
struct lane_run {
  multi_entries entries;  // the stored entries, sorted
  u32 count = 0;          // the entry counter after the call (the demand)
  bool tail_untouched = true;
};

/// comparer_multi_swar_lanes on this thread over every locus, in rows of
/// `nlanes` loci (0: one row), at the tier in force: AVX-512 octs, AVX2
/// quads or the per-item body. Its output arrays hold `capacity` entries,
/// then `guard` sentinel slots it must not write.
lane_run run_lane_body(const swar_ref& ref, const std::vector<u32>& loci,
                       const std::vector<char>& flags,
                       const std::vector<device_pattern>& queries,
                       const std::vector<u16>& thresholds, u32 capacity, usize guard = 0,
                       usize nlanes = 0) {
  const usize n = capacity + guard;
  std::vector<u16> mm(n, 0xBEEF);
  std::vector<char> dir(n, '#');
  std::vector<u32> mloci(n, 0xDEADBEEF);
  std::vector<u16> mquery(n, 0xBEEF);
  std::vector<util::u64> swar;
  for (const auto& q : queries) swar.insert(swar.end(), q.swar.begin(), q.swar.end());
  lane_run r;
  comparer_multi_swar_args a;
  a.locicnts = static_cast<u32>(loci.size());
  a.chr_packed2 = ref.packed2.data();
  a.chr_amb2 = ref.amb2.data();
  a.loci = loci.data();
  a.flag = flags.data();
  a.comp_swar = swar.data();
  a.l_comp_swar = swar.data();
  a.thresholds = thresholds.data();
  a.nqueries = static_cast<u32>(queries.size());
  a.plen = queries[0].plen;
  a.swar_words = queries[0].swar_words;
  a.mm_count = mm.data();
  a.direction = dir.data();
  a.mm_loci = mloci.data();
  a.mm_query = mquery.data();
  a.entrycount = &r.count;
  a.entry_capacity = capacity;
  const usize row = nlanes == 0 ? loci.size() : nlanes;
  for (usize first = 0; first < loci.size(); first += row) {
    comparer_multi_swar_lanes(a, first, row);
  }
  for (u32 i = 0; i < std::min(r.count, capacity); ++i) {
    r.entries.emplace_back(mquery[i], mloci[i], dir[i], mm[i]);
  }
  std::sort(r.entries.begin(), r.entries.end());
  for (usize i = capacity; i < n; ++i) {
    r.tail_untouched = r.tail_untouched && mm[i] == 0xBEEF && dir[i] == '#' &&
                       mloci[i] == 0xDEADBEEF && mquery[i] == 0xBEEF;
  }
  return r;
}

/// `n` guides that sit near the reference: each is the window at a random
/// locus (its non-ACGT bytes as 'N') with up to three bases changed to any
/// IUPAC code, so low thresholds still leave entries.
std::vector<device_pattern> guides_near(util::rng& rng, const std::string& chunk,
                                        const std::vector<u32>& loci, u32 plen, usize n) {
  std::vector<device_pattern> out;
  for (usize q = 0; q < n; ++q) {
    std::string g = chunk.substr(loci[rng.next_below(loci.size())], plen);
    for (char& c : g) {
      if (std::string_view("ACGT").find(c) == std::string_view::npos) c = 'N';
    }
    for (u64 k = rng.next_below(4); k > 0; --k) {
      g[rng.next_below(plen)] = kIupac[rng.next_below(15)];
    }
    out.push_back(make_pattern(g));
  }
  return out;
}

// A capacity below the demand: the lane body still returns the true demand
// (the per-item body's count), stores only entries of the full set, and
// writes nothing past the capacity, with the arrays sized to it (a store
// past them fails the sanitizer builds) and with sentinel slots after it.
TEST(SwarMultiLanes, CapacityClampKeepsTrueDemand) {
  util::rng rng(620);
  const std::string chunk = random_reference(rng, 600);
  const auto ref = swar_pack(chunk);
  std::vector<u32> loci;
  std::vector<char> flags;
  random_loci(rng, chunk.size(), 23, 97, loci, flags);
  const auto queries = guides_near(rng, chunk, loci, 23, 8);
  const std::vector<u16> thresholds(8, 23);  // every live strand is an entry
  const u32 most = static_cast<u32>(loci.size() * 2 * queries.size());
  const lane_run full = run_lane_body(ref, loci, flags, queries, thresholds, most);
  ASSERT_GT(full.count, 100u);
  ASSERT_EQ(full.entries.size(), full.count);
  ASSERT_EQ(full.entries, run_multi_base(chunk, loci, flags, queries, thresholds));
  for (const u32 cap : {0u, 1u, 3u, full.count / 2, full.count - 1}) {
    for (const util::simd_tier tier : host_tiers()) {
      tier_guard pin(tier);
      const std::string where = "cap=" + std::to_string(cap) + tier_label();
      const lane_run exact = run_lane_body(ref, loci, flags, queries, thresholds, cap);
      EXPECT_EQ(exact.count, full.count) << where;
      ASSERT_EQ(exact.entries.size(), cap) << where;
      for (const auto& e : exact.entries) {
        EXPECT_TRUE(std::binary_search(full.entries.begin(), full.entries.end(), e)) << where;
      }
      const lane_run guarded = run_lane_body(ref, loci, flags, queries, thresholds, cap, 16);
      EXPECT_EQ(guarded.count, full.count) << where;
      EXPECT_TRUE(guarded.tail_untouched) << where;
    }
  }
}

// Every flag pattern of one quad (0, 1 or 2 on each of four consecutive
// loci: 81 quads, so every pattern of each half of an oct too), with 0-7
// loci after the last full oct; pattern lengths 23 (one word) and 65
// (three words: the multi-word early exit), 1 and 8 guides, thresholds 0,
// plen, 65535 and one in between. Then rows whose loci are all forward,
// all reverse, all both, alternately forward and reverse, or random, in
// rows of 1, 4, 63, 64, 65, 256 and 257 loci (the executor's row follows
// the work-group size) and a shorter last row, so a strand list ends with
// 1-7 loci past its last full oct (the oct's padding lanes) and a long row
// refills the lane body's strand lists. The lane body at every tier and
// the per-query base comparer give the same entries. Each base reference
// runs once, outside the tier and threshold loops: at the loosest
// threshold, a tighter one's entries being those with at most that many
// mismatches.
TEST(SwarMultiLanes, EveryFlagPatternOfAQuad) {
  util::rng rng(621);
  constexpr usize kQuads = 81 * 4;
  for (const u32 plen : {23u, 65u}) {
    const std::string chunk = random_reference(rng, plen + 700);
    const auto ref = swar_pack(chunk);
    std::vector<u32> all_loci;
    std::vector<char> all_flags;
    random_loci(rng, chunk.size(), plen, kQuads + 7, all_loci, all_flags);
    for (u32 quad = 0; quad < 81; ++quad) {
      for (u32 l = 0, code = quad; l < 4; ++l, code /= 3) {
        all_flags[4 * quad + l] = static_cast<char>(code % 3);
      }
    }
    for (const usize nq : {usize{1}, usize{8}}) {
      const auto queries = guides_near(rng, chunk, all_loci, plen, nq);
      const std::vector<u16> loosest(nq, u16{65535});
      // The quads' entries, then each tail locus's added in turn.
      multi_entries every = run_multi_base(
          chunk, std::vector<u32>(all_loci.begin(), all_loci.begin() + kQuads),
          std::vector<char>(all_flags.begin(), all_flags.begin() + kQuads), queries, loosest);
      for (usize tail = 0; tail <= 7; ++tail) {
        if (tail != 0) {
          const usize l = kQuads + tail - 1;
          const multi_entries one =
              run_multi_base(chunk, {all_loci[l]}, {all_flags[l]}, queries, loosest);
          every.insert(every.end(), one.begin(), one.end());
          std::sort(every.begin(), every.end());
        }
        const std::vector<u32> loci(all_loci.begin(), all_loci.begin() + kQuads + tail);
        const std::vector<char> flags(all_flags.begin(), all_flags.begin() + loci.size());
        for (const u16 t : {u16{0}, static_cast<u16>(plen / 4), static_cast<u16>(plen),
                            u16{65535}}) {
          const std::vector<u16> thresholds(nq, t);
          const std::string where = "plen=" + std::to_string(plen) +
                                    " queries=" + std::to_string(nq) +
                                    " threshold=" + std::to_string(t) +
                                    " locicnt=" + std::to_string(loci.size());
          const u32 most = static_cast<u32>(loci.size() * 2 * nq);
          const multi_entries want = within(every, t);
          for (const util::simd_tier tier : host_tiers()) {
            tier_guard pin(tier);
            ASSERT_EQ(run_lane_body(ref, loci, flags, queries, thresholds, most).entries, want)
                << where << tier_label();
          }
        }
      }
    }
  }

  const char* const kShapes[] = {"forward", "reverse", "both", "alternating", "random"};
  // Rows of `nlanes` loci over nlanes + rest loci: a one-strand list ends
  // the first row with nlanes % 8 loci past its last full oct (1, 4, 7, 0,
  // 1, 0, 1) and the last row with rest % 8 (1, 2, 5, 6, 7, 3, 1; rows of
  // 1 hold one locus each).
  const std::pair<usize, usize> kRows[] = {{1, 3},  {4, 2},   {63, 5}, {64, 6},
                                           {65, 7}, {256, 3}, {257, 1}};
  for (const u32 plen : {23u, 65u}) {
    const std::string chunk = random_reference(rng, plen + 700);
    const auto ref = swar_pack(chunk);
    for (const auto& [nlanes, rest] : kRows) {
      std::vector<u32> loci;
      std::vector<char> flags;
      random_loci(rng, chunk.size(), plen, nlanes + rest, loci, flags);
      for (usize shape = 0; shape < std::size(kShapes); ++shape) {
        for (usize i = 0; i < flags.size(); ++i) {
          const char fixed[] = {1, 2, 0, static_cast<char>(1 + i % 2)};
          flags[i] = shape < 4 ? fixed[shape] : static_cast<char>(rng.next_below(3));
        }
        for (const usize nq : {usize{1}, usize{8}}) {
          const auto queries = guides_near(rng, chunk, loci, plen, nq);
          const auto every = run_multi_base(chunk, loci, flags, queries,
                                            std::vector<u16>(nq, u16{65535}));
          for (const u16 t : {static_cast<u16>(plen / 4), u16{65535}}) {
            const std::vector<u16> thresholds(nq, t);
            const std::string where = "plen=" + std::to_string(plen) + " rows of " +
                                      std::to_string(nlanes) + "+" + std::to_string(rest) +
                                      " " + kShapes[shape] + " queries=" + std::to_string(nq) +
                                      " threshold=" + std::to_string(t);
            const u32 most = static_cast<u32>(loci.size() * 2 * nq);
            const multi_entries want = within(every, t);
            for (const util::simd_tier tier : host_tiers()) {
              tier_guard pin(tier);
              ASSERT_EQ(run_lane_body(ref, loci, flags, queries, thresholds, most, 0, nlanes)
                            .entries,
                        want)
                  << where << tier_label();
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level byte-identity: all four backends x {1,2,4} queues.
// ---------------------------------------------------------------------------

genome::genome_t swar_genome(util::u64 seed) {
  genome::synth_params p;
  p.assembly = "swar-test";
  p.chromosomes = {{"chrA", 40000}, {"chrB", 20000}};
  p.seed = seed;
  return genome::generate(p);
}

class SwarBackendSweep
    : public ::testing::TestWithParam<std::pair<backend_kind, int>> {};

// opt6 must produce byte-identical search output to the same backend's base
// across every queue count.
TEST_P(SwarBackendSweep, Opt6MatchesBase) {
  const auto [backend, queues] = GetParam();
  auto g = swar_genome(71);
  auto cfg = parse_input(example_input("<mem>"));
  engine_options base{.backend = backend,
                      .variant = comparer_variant::base,
                      .max_chunk = 8192,
                      .num_queues = static_cast<usize>(queues)};
  engine_options opt6 = base;
  opt6.variant = comparer_variant::opt6;
  const auto want = run_search(cfg, g, base);
  const auto got = run_search(cfg, g, opt6);
  EXPECT_EQ(got.records, want.records);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndQueues, SwarBackendSweep,
    ::testing::Values(std::pair{backend_kind::sycl, 1},
                      std::pair{backend_kind::sycl, 2},
                      std::pair{backend_kind::sycl, 4},
                      std::pair{backend_kind::opencl, 1},
                      std::pair{backend_kind::opencl, 2},
                      std::pair{backend_kind::opencl, 4},
                      std::pair{backend_kind::sycl_usm, 1},
                      std::pair{backend_kind::sycl_usm, 2},
                      std::pair{backend_kind::sycl_usm, 4},
                      std::pair{backend_kind::sycl_twobit, 1},
                      std::pair{backend_kind::sycl_twobit, 2},
                      std::pair{backend_kind::sycl_twobit, 4}));

// Streamed (disk-chunked) output with opt6 must equal the in-memory base
// result for every backend, at every tier.
TEST(SwarEngine, StreamedOutputMatchesAcrossDispatchPaths) {
  struct temp_dir {
    fs::path path;
    temp_dir() {
      path = fs::temp_directory_path() /
             ("cof_swar_" + std::to_string(::getpid()));
      fs::create_directories(path);
    }
    ~temp_dir() { fs::remove_all(path); }
  } dir;

  auto g = swar_genome(73);
  auto cfg = parse_input(example_input("<file>"));
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 4, 1, 74);
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);

  for (backend_kind backend :
       {backend_kind::sycl, backend_kind::opencl, backend_kind::sycl_usm,
        backend_kind::sycl_twobit}) {
    engine_options base{.backend = backend,
                        .variant = comparer_variant::base,
                        .max_chunk = 7000,
                        .num_queues = 2};
    engine_options opt6 = base;
    opt6.variant = comparer_variant::opt6;
    const auto want = run_search(cfg, g, base);
    for (const util::simd_tier tier : host_tiers()) {
      tier_guard pin(tier);
      EXPECT_EQ(run_search_streaming(cfg, file.string(), opt6).records, want.records)
          << "backend=" << backend_name(backend) << tier_label();
    }
  }
}

// Counting mode (profiler attached) on the default variant (opt6) must not
// disturb results, and must profile the packed-word finder and the SWAR
// comparer with word evaluations rather than per-character events.
TEST(SwarEngine, CountingRunMatchesAndCountsSwarOps) {
  ASSERT_EQ(engine_options{}.variant, comparer_variant::opt6);
  auto g = swar_genome(75);
  auto cfg = parse_input(example_input("<mem>"));
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 4, 1, 77);
  engine_options plain;
  plain.max_chunk = 8192;
  prof::profiler p;
  engine_options counting = plain;
  counting.counting = true;
  counting.profiler = &p;
  const auto want = run_search(cfg, g, plain);
  const auto got = run_search(cfg, g, counting);
  EXPECT_EQ(got.records, want.records);
  EXPECT_FALSE(want.records.empty());
  for (const char* kernel : {"finder", "comparer/opt6"}) {
    EXPECT_GT(p.get(kernel).launches, 0u) << kernel;
    EXPECT_GT(p.get(kernel).events[prof::ev::work_item], 0u) << kernel;
    EXPECT_GT(p.get(kernel).events[prof::ev::swar_op], 0u) << kernel;
  }
}

}  // namespace
