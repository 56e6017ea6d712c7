// Direct kernel-level tests: finder and comparer launched on the xpu engine
// with crafted inputs, plus counting-policy checks that the optimisation
// variants reduce exactly the accesses the paper says they do.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/kernels.hpp"
#include "core/kernels_swar.hpp"
#include "core/pattern.hpp"
#include "genome/iupac.hpp"
#include "util/rng.hpp"
#include "xpu/device.hpp"

namespace {

using namespace cof;

xpu::device& dev() {
  static xpu::device d("kernels", 1);
  return d;
}

struct finder_run {
  std::vector<u32> loci;
  std::vector<char> flags;
};

finder_run run_finder(const std::string& chunk, const device_pattern& pat,
                      usize wg = 16) {
  const u32 chrsize = static_cast<u32>(chunk.size() - pat.plen + 1);
  std::vector<u32> loci(chunk.size(), 0);
  std::vector<char> flags(chunk.size(), -1);
  u32 count = 0;

  xpu::launch_config cfg;
  cfg.global[0] = util::round_up<usize>(chrsize, wg);
  cfg.local[0] = wg;
  cfg.local_mem_bytes = pat.device_chars() * (1 + sizeof(i32)) + 128;
  cfg.uses_barrier = true;
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
    char* base = it.local_mem_base();
    const usize idx_off = util::round_up<usize>(pat.device_chars(), 8);
    a.l_pat = base;
    a.l_pat_index = reinterpret_cast<i32*>(base + idx_off);
    finder_kernel<direct_mem>(it, a);
  });

  finder_run r;
  for (u32 i = 0; i < count; ++i) {
    r.loci.push_back(loci[i]);
    r.flags.push_back(flags[i]);
  }
  // atomic append order is nondeterministic across groups; canonicalise
  std::vector<std::pair<u32, char>> z;
  for (u32 i = 0; i < count; ++i) z.emplace_back(r.loci[i], r.flags[i]);
  std::sort(z.begin(), z.end());
  for (u32 i = 0; i < count; ++i) {
    r.loci[i] = z[i].first;
    r.flags[i] = z[i].second;
  }
  return r;
}

TEST(FinderKernel, FindsForwardPamSite) {
  //            pattern NNG: G required at position 2
  const auto pat = make_pattern("NNG");
  //                   012345
  const auto r = run_finder("TTGTTT", pat);
  // site at 0: "TTG" matches fw; rc(pattern)=CNN -> needs C at 0.
  ASSERT_EQ(r.loci.size(), 1u);
  EXPECT_EQ(r.loci[0], 0u);
  EXPECT_EQ(r.flags[0], 1);  // forward only
}

TEST(FinderKernel, FindsReversePamSite) {
  const auto pat = make_pattern("NNG");  // rc = "CNN"
  const auto r = run_finder("CTTTTT", pat);
  ASSERT_EQ(r.loci.size(), 1u);
  EXPECT_EQ(r.loci[0], 0u);
  EXPECT_EQ(r.flags[0], 2);  // reverse only
}

TEST(FinderKernel, FlagZeroWhenBothStrandsMatch) {
  const auto pat = make_pattern("NNG");  // fw needs G at 2, rc needs C at 0
  const auto r = run_finder("CTGTTT", pat);
  ASSERT_GE(r.loci.size(), 1u);
  EXPECT_EQ(r.loci[0], 0u);
  EXPECT_EQ(r.flags[0], 0);  // both
}

TEST(FinderKernel, AllNPatternMatchesEverywhere) {
  const auto pat = make_pattern("NNN");
  const auto r = run_finder("ACGTACGT", pat);
  EXPECT_EQ(r.loci.size(), 6u);  // 8 - 3 + 1
  for (u32 i = 0; i < r.loci.size(); ++i) EXPECT_EQ(r.loci[i], i);
}

TEST(FinderKernel, RespectsChrsizeBound) {
  // Tail work-items (padding beyond chrsize) must not report sites.
  const auto pat = make_pattern("NNN");
  const auto r = run_finder("ACGTA", pat, /*wg=*/16);  // gws padded to 16
  EXPECT_EQ(r.loci.size(), 3u);
}

TEST(FinderKernel, IupacPamRG) {
  const auto pat = make_pattern("NRG");  // R = A or G at position 1
  const auto r = run_finder("TAGTTTTGGTTT", pat);
  // "TAG" at 0 (A matches R), "TGG" at 6? positions: string TAGTTTTGGTTT:
  // idx0 TAG ok; idx6 TGG ok. rc(pattern) = CYN: needs C then Y.
  std::vector<u32> expect{0, 6};
  EXPECT_EQ(r.loci, expect);
}

// ---------------------------------------------------------------------------
// comparer
// ---------------------------------------------------------------------------

struct cmp_run {
  std::vector<u16> mm;
  std::vector<char> dir;
  std::vector<u32> loci;
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

/// opt6 runs its batched comparer with a batch of one guide: the chunk is
/// 2-bit packed on the fly and the query's per-word SWAR deny masks land in
/// local memory. Direct runs also take the executor's lane rows, which must
/// store the same entries.
cmp_run run_comparer_swar(const std::string& chunk, const std::vector<u32>& loci,
                          const std::vector<char>& flags, const device_pattern& query,
                          u16 threshold, usize wg, bool counting) {
  const u32 n = static_cast<u32>(loci.size());
  const usize cap = static_cast<usize>(n) * 2;
  const auto sref = swar_pack(chunk);

  xpu::launch_config cfg;
  cfg.global[0] = util::round_up<usize>(n, wg);
  cfg.local[0] = wg;
  cfg.local_mem_bytes = query.swar.size() * sizeof(util::u64);
  cfg.uses_barrier = true;
  const auto launch = [&](bool via_lanes) {
    std::vector<u16> mm(cap, 0);
    std::vector<char> dir(cap, 0);
    std::vector<u32> mloci(cap, 0);
    std::vector<u16> mquery(cap, 0);
    u32 count = 0;
    comparer_multi_swar_args a;
    a.locicnts = n;
    a.chr_packed2 = sref.packed2.data();
    a.chr_amb2 = sref.amb2.data();
    a.loci = loci.data();
    a.flag = flags.data();
    a.comp_swar = query.swar_data();
    a.thresholds = &threshold;
    a.nqueries = 1;
    a.plen = query.plen;
    a.swar_words = query.swar_words;
    a.mm_count = mm.data();
    a.direction = dir.data();
    a.mm_loci = mloci.data();
    a.mm_query = mquery.data();
    a.entrycount = &count;
    auto item = [&](xpu::xitem& it) {
      comparer_multi_swar_args b = a;
      b.l_comp_swar = reinterpret_cast<util::u64*>(it.local_mem_base());
      if (counting) {
        comparer_multi_swar_kernel<counting_mem>(it, b);
      } else {
        comparer_multi_swar_kernel<direct_mem>(it, b);
      }
    };
    if (via_lanes) {
      xpu::launch_config lanes_cfg = cfg;
      lanes_cfg.single_leading_barrier = true;
      dev().run_lanes(lanes_cfg, item, [&](const xpu::xitem& first, usize nlanes) {
        comparer_multi_swar_args la = a;
        la.l_comp_swar = const_cast<util::u64*>(a.comp_swar);
        comparer_multi_swar_lanes(la, first.get_global_id(0), nlanes);
      });
    } else {
      dev().run(cfg, item);
    }
    return canonicalise(mm, dir, mloci, count);
  };
  const cmp_run per_item = launch(false);
  if (!counting) {
    const cmp_run lanes = launch(true);
    EXPECT_EQ(lanes.mm, per_item.mm) << "lane rows";
    EXPECT_EQ(lanes.dir, per_item.dir) << "lane rows";
    EXPECT_EQ(lanes.loci, per_item.loci) << "lane rows";
  }
  return per_item;
}

cmp_run run_comparer(comparer_variant v, const std::string& chunk,
                     const std::vector<u32>& loci, const std::vector<char>& flags,
                     const device_pattern& query, u16 threshold, usize wg = 8,
                     bool counting = false) {
  if (v == comparer_variant::opt6) {
    return run_comparer_swar(chunk, loci, flags, query, threshold, wg, counting);
  }
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
  auto body = [&](xpu::xitem& it) {
    char* base = it.local_mem_base();
    const usize idx_off = util::round_up<usize>(query.device_chars(), 8);
    a.l_comp = base;
    a.l_comp_index = reinterpret_cast<i32*>(base + idx_off);
    if (counting) {
      comparer_dispatch<counting_mem>(v, it, a);
    } else {
      comparer_dispatch<direct_mem>(v, it, a);
    }
  };
  dev().run(cfg, body);
  return canonicalise(mm, dir, mloci, count);
}

TEST(ComparerKernel, CountsMismatchesForward) {
  const auto query = make_query("ACGTN");
  // locus 0: ref "ACGTA" -> 0 mismatches at non-N positions
  // locus 5: ref "AGGTA" -> 1 mismatch (C vs G)
  const std::string chunk = "ACGTAAGGTA";
  const auto r = run_comparer(comparer_variant::base, chunk, {0, 5}, {1, 1}, query, 5);
  ASSERT_EQ(r.mm.size(), 2u);
  EXPECT_EQ(r.mm[0], 0);
  EXPECT_EQ(r.mm[1], 1);
  EXPECT_EQ(r.dir[0], '+');
}

TEST(ComparerKernel, ThresholdBoundaryInclusive) {
  const auto query = make_query("AAAA");
  const std::string chunk = "TTAATTTT";  // locus 0: AA at 2,3 -> 2 mismatches
  for (u16 threshold : {1, 2, 3}) {
    const auto r =
        run_comparer(comparer_variant::base, chunk, {0}, {1}, query, threshold);
    if (threshold >= 2) {
      ASSERT_EQ(r.mm.size(), 1u) << threshold;
      EXPECT_EQ(r.mm[0], 2);
    } else {
      EXPECT_TRUE(r.mm.empty()) << threshold;  // early exit, no entry
    }
  }
}

TEST(ComparerKernel, ReverseStrandUsesRcHalf) {
  const auto query = make_query("ACGT");  // rc half = "ACGT" rc = "ACGT"? no:
  // rc("ACGT") = "ACGT" (palindrome) — use a non-palindrome instead.
  const auto q2 = make_query("AAGG");  // rc = CCTT
  const std::string chunk = "CCTTTTTT";
  // flag 2: only reverse compare; ref "CCTT" equals rc(query) -> 0 mismatches.
  const auto r = run_comparer(comparer_variant::base, chunk, {0}, {2}, q2, 3);
  ASSERT_EQ(r.mm.size(), 1u);
  EXPECT_EQ(r.mm[0], 0);
  EXPECT_EQ(r.dir[0], '-');
}

TEST(ComparerKernel, FlagZeroProducesBothStrandEntries) {
  const auto q = make_query("NNNN");  // matches everything on both strands
  const std::string chunk = "ACGTACGT";
  const auto r = run_comparer(comparer_variant::base, chunk, {1}, {0}, q, 0);
  ASSERT_EQ(r.mm.size(), 2u);
  EXPECT_EQ(r.dir[0], '+');
  EXPECT_EQ(r.dir[1], '-');
  EXPECT_EQ(r.loci[0], 1u);
  EXPECT_EQ(r.loci[1], 1u);
}

TEST(ComparerKernel, SkipsStrandExcludedByFlag) {
  const auto q = make_query("NNNN");
  const std::string chunk = "ACGTACGT";
  const auto fw = run_comparer(comparer_variant::base, chunk, {0}, {1}, q, 0);
  ASSERT_EQ(fw.dir.size(), 1u);
  EXPECT_EQ(fw.dir[0], '+');
  const auto rc = run_comparer(comparer_variant::base, chunk, {0}, {2}, q, 0);
  ASSERT_EQ(rc.dir.size(), 1u);
  EXPECT_EQ(rc.dir[0], '-');
}

// Property: all variants (base..opt4, opt6) agree bit-for-bit on randomised
// inputs.
class VariantEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(VariantEquivalence, AgreesWithBase) {
  util::rng rng(static_cast<util::u64>(GetParam()));
  std::string chunk;
  for (int i = 0; i < 600; ++i) chunk += "ACGT"[rng.next_below(4)];
  const auto query = make_query("GGCCGACCTGTCGCTGACGCNNN");
  std::vector<u32> loci;
  std::vector<char> flags;
  for (u32 pos = 0; pos + 23 <= chunk.size(); pos += 7) {
    loci.push_back(pos);
    flags.push_back(static_cast<char>(rng.next_below(3)));
  }
  const auto base =
      run_comparer(comparer_variant::base, chunk, loci, flags, query, 5);
  for (int v = 1; v < kNumComparerVariants; ++v) {
    const auto other = run_comparer(static_cast<comparer_variant>(v), chunk, loci,
                                    flags, query, 5);
    EXPECT_EQ(other.mm, base.mm) << "variant " << v;
    EXPECT_EQ(other.dir, base.dir) << "variant " << v;
    EXPECT_EQ(other.loci, base.loci) << "variant " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VariantEquivalence, ::testing::Range(1, 9));

// Counting-policy checks: each optimisation removes exactly the accesses
// the paper describes.
prof::event_counts count_events(comparer_variant v) {
  util::rng rng(99);
  std::string chunk;
  for (int i = 0; i < 400; ++i) chunk += "ACGT"[rng.next_below(4)];
  const auto query = make_query("GGCCGACCTGTCGCTGACGCNNN");
  std::vector<u32> loci;
  std::vector<char> flags;
  for (u32 pos = 0; pos + 23 <= chunk.size(); pos += 11) {
    loci.push_back(pos);
    flags.push_back(static_cast<char>(pos % 3));
  }
  prof::counters::reset();
  (void)run_comparer(v, chunk, loci, flags, query, 5, 8, /*counting=*/true);
  return prof::counters::snapshot();
}

TEST(ComparerCounting, Opt1RemovesDuplicateReferenceLoads) {
  const auto base = count_events(comparer_variant::base);
  const auto opt1 = count_events(comparer_variant::opt1);
  // Same unique loads, fewer repeats (the duplicate chr loads disappear).
  EXPECT_EQ(opt1[prof::ev::global_load], base[prof::ev::global_load]);
  EXPECT_LT(opt1[prof::ev::global_load_repeat], base[prof::ev::global_load_repeat]);
  EXPECT_EQ(opt1[prof::ev::compare], base[prof::ev::compare]);
}

TEST(ComparerCounting, Opt2EliminatesLociFlagReloads) {
  const auto opt1 = count_events(comparer_variant::opt1);
  const auto opt2 = count_events(comparer_variant::opt2);
  EXPECT_LT(opt2[prof::ev::global_load_repeat], opt1[prof::ev::global_load_repeat]);
  EXPECT_EQ(opt2[prof::ev::local_load], opt1[prof::ev::local_load]);
}

TEST(ComparerCounting, Opt3SameTotalFetchWorkSpreadAcrossItems) {
  // Cooperative fetch moves the same number of local stores from work-item
  // 0 to the whole group — total volume is unchanged.
  const auto opt2 = count_events(comparer_variant::opt2);
  const auto opt3 = count_events(comparer_variant::opt3);
  EXPECT_EQ(opt3[prof::ev::local_store], opt2[prof::ev::local_store]);
  EXPECT_EQ(opt3[prof::ev::global_load], opt2[prof::ev::global_load]);
}

TEST(ComparerCounting, Opt4KeepsAccessCountsOfOpt3) {
  const auto opt3 = count_events(comparer_variant::opt3);
  const auto opt4 = count_events(comparer_variant::opt4);
  // opt4 changes registers/schedule, not executed memory ops.
  EXPECT_EQ(opt4[prof::ev::global_load], opt3[prof::ev::global_load]);
  EXPECT_EQ(opt4[prof::ev::local_load], opt3[prof::ev::local_load]);
  EXPECT_EQ(opt4[prof::ev::compare], opt3[prof::ev::compare]);
}

TEST(ComparerCounting, WorkItemsCounted) {
  const auto base = count_events(comparer_variant::base);
  EXPECT_GT(base[prof::ev::work_item], 0u);
  EXPECT_GT(base[prof::ev::loop_iter], 0u);
  EXPECT_GT(base[prof::ev::local_store], 0u);
}

// ---------------------------------------------------------------------------
// deny-LUT correctness (opt6 derives its finder and comparer masks from it)
// ---------------------------------------------------------------------------

TEST(MaskLut, EquivalentToChainForAllCharPairs) {
  // The 16-bit deny LUT indexed by the reference nibble must reproduce
  // casoffinder_mismatch exactly — for every pattern char and every
  // reference byte, IUPAC or not (all non-IUPAC refs share nibble 0, whose
  // bit is derived from the chain's behaviour on a non-IUPAC stand-in).
  for (int p = 0; p < 256; ++p) {
    const char pc = static_cast<char>(p);
    const u16 mask = genome::casoffinder_mismatch_mask(pc);
    for (int r = 0; r < 256; ++r) {
      const char rc = static_cast<char>(r);
      const bool chain = genome::casoffinder_mismatch(pc, rc);
      const bool lut = ((mask >> genome::iupac_nibble(rc)) & 1u) != 0;
      ASSERT_EQ(lut, chain) << "pat=" << p << " ref=" << r;
    }
  }
}

}  // namespace
