// Microbenchmark: comparer kernel variants on the simulated accelerator
// (CPU wall time; google-benchmark). bm_comparer_variant and
// bm_comparer_threshold run one guide per launch (opt6's batched comparer
// with a batch of one). bm_comparer_shape runs opt6's two production
// shapes through the SYCL facade's launch: 8 guides over NRG loci (the cold
// streamed search) and 1 guide over CGG loci (a served request).
// bm_comparer_lanes calls the lane body (comparer_multi_swar_lanes) on one
// thread over the same shapes at each SIMD tier (AVX-512, AVX2, scalar),
// without the executor's pool dispatch, so a lane-body change shows its
// cost per locus. The shape benchmarks count items as loci x guides. Complements fig2_kernel_time, which reports
// modelled device time.
#include <benchmark/benchmark.h>

#include "core/kernels_swar.hpp"
#include "core/pipeline.hpp"
#include "genome/synth.hpp"
#include "lane_tier.hpp"
#include "util/log.hpp"

namespace {

using util::u16;
using util::u32;
using util::u64;
using util::usize;

struct fixture {
  genome::genome_t g;
  cof::device_pattern pat;
  cof::device_pattern query;

  fixture() {
    util::set_log_level(util::log_level::warn);
    g = genome::generate(genome::hg19_like(8192, 11));
    pat = cof::make_pattern("NNNNNNNNNNNNNNNNNNNNNRG");
    query = cof::make_query("GGCCGACCTGTCGCTGACGCNNN");
  }
  static fixture& get() {
    static fixture f;
    return f;
  }
};

void bm_comparer_variant(benchmark::State& state) {
  auto& f = fixture::get();
  cof::pipeline_options opt;
  opt.variant = static_cast<cof::comparer_variant>(state.range(0));
  opt.wg_size = 256;
  auto pipe = cof::make_sycl_pipeline(opt);
  const auto& seq = f.g.chroms[0].seq;
  pipe->load_chunk(std::string_view(seq.data(), seq.size()));
  const auto loci = pipe->run_finder(f.pat);
  util::usize entries = 0;
  for (auto _ : state) {
    auto e = pipe->run_comparers({f.query}, {5});
    entries += e.size();
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * loci);
  state.counters["loci"] = static_cast<double>(loci);
  state.counters["entries/iter"] =
      static_cast<double>(entries) / static_cast<double>(state.iterations());
  state.SetLabel(cof::comparer_variant_name(opt.variant));
}

void bm_comparer_threshold(benchmark::State& state) {
  // Early-exit ablation: higher thresholds disable the "finish early when a
  // mismatch threshold is reached" path (Listing 1, L16).
  auto& f = fixture::get();
  cof::pipeline_options opt;
  opt.wg_size = 256;
  auto pipe = cof::make_sycl_pipeline(opt);
  const auto& seq = f.g.chroms[0].seq;
  pipe->load_chunk(std::string_view(seq.data(), seq.size()));
  const auto loci = pipe->run_finder(f.pat);
  const auto threshold = static_cast<util::u16>(state.range(0));
  for (auto _ : state) {
    auto e = pipe->run_comparers({f.query}, {threshold});
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * loci);
}

/// One production shape of opt6's comparer on hg19/256's first chromosome
/// (about 1 Mbp): its PAM's candidate loci and flags (the packed-word
/// finder's, in ascending order) and `nguides` 20-mer guides sampled from
/// the chromosome, each with an NNN PAM and 5 mismatches allowed.
struct shape {
  const char* name;
  std::string seq;
  cof::swar_ref ref;
  cof::device_pattern pat;
  std::vector<u32> loci;
  std::vector<char> flag;
  std::vector<cof::device_pattern> queries;
  std::vector<u16> thresholds;
  std::vector<u64> swar;  // every query's masks, concatenated

  shape(const char* label, const char* pattern, usize nguides)
      : name(label), seq(chromosome()) {
    ref = cof::swar_pack(seq);
    pat = cof::make_pattern(pattern);
    const u32 chrsize = static_cast<u32>(seq.size() - pat.plen + 1);
    std::vector<u32> hit(chrsize);
    std::vector<char> hflag(chrsize);
    u32 count = 0;
    cof::finder_swar_args fa;
    fa.chr_packed2 = ref.packed2.data();
    fa.chr_amb2 = ref.amb2.data();
    fa.pat_mask = pat.mask_data();
    fa.pat_index = pat.index_data();
    fa.chrsize = chrsize;
    fa.plen = pat.plen;
    fa.loci = hit.data();
    fa.flag = hflag.data();
    fa.entrycount = &count;
    fa.entry_capacity = chrsize;
    cof::finder_swar_lanes(fa, 0, cof::swar_finder_items(chrsize));
    loci.assign(hit.begin(), hit.begin() + count);
    flag.assign(hflag.begin(), hflag.begin() + count);
    for (usize q = 0; queries.size() < nguides; q += 7919) {
      const std::string core = seq.substr((q * 104729) % (seq.size() - 20), 20);
      if (core.find_first_not_of("ACGT") != std::string::npos) continue;
      queries.push_back(cof::make_query(core + "NNN"));
      thresholds.push_back(5);
      swar.insert(swar.end(), queries.back().swar.begin(), queries.back().swar.end());
    }
  }

  /// The lane body's arguments over every locus, writing into `out`
  /// (entry_capacity entries each).
  struct outputs {
    std::vector<u16> mm, query;
    std::vector<char> dir;
    std::vector<u32> loci;
    u32 count = 0;
  };
  cof::comparer_multi_swar_args args(outputs& out) {
    cof::comparer_multi_swar_args a;
    a.locicnts = static_cast<u32>(loci.size());
    a.chr_packed2 = ref.packed2.data();
    a.chr_amb2 = ref.amb2.data();
    a.loci = loci.data();
    a.flag = flag.data();
    a.comp_swar = swar.data();
    a.l_comp_swar = swar.data();
    a.thresholds = thresholds.data();
    a.nqueries = static_cast<u32>(queries.size());
    a.plen = pat.plen;
    a.swar_words = queries[0].swar_words;
    a.mm_count = out.mm.data();
    a.direction = out.dir.data();
    a.mm_loci = out.loci.data();
    a.mm_query = out.query.data();
    a.entrycount = &out.count;
    a.entry_capacity = static_cast<u32>(out.mm.size());
    return a;
  }

  static const std::string& chromosome() {
    static const std::string chr = [] {
      util::set_log_level(util::log_level::warn);
      return genome::generate(genome::hg19_like(256, 7)).chroms[0].seq;
    }();
    return chr;
  }

  static shape& get(int which) {
    static shape cold("cold: NRG, 8 guides", "NNNNNNNNNNNNNNNNNNNNNRG", 8);
    static shape serve("serve: CGG, 1 guide", "NNNNNNNNNNNNNNNNNNNNCGG", 1);
    return which == 0 ? cold : serve;
  }
};

void bm_comparer_shape(benchmark::State& state) {
  shape& s = shape::get(static_cast<int>(state.range(0)));
  cof::pipeline_options opt;
  opt.wg_size = 256;
  auto pipe = cof::make_sycl_pipeline(opt);
  pipe->load_chunk(std::string_view(s.seq));
  const u32 loci = pipe->run_finder(s.pat);
  usize entries = 0;
  for (auto _ : state) {
    auto e = pipe->run_comparers(s.queries, s.thresholds);
    entries += e.size();
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * loci * s.queries.size()));
  state.counters["loci"] = static_cast<double>(loci);
  state.counters["entries/iter"] =
      static_cast<double>(entries) / static_cast<double>(state.iterations());
  state.SetLabel(s.name);
}

void bm_comparer_lanes(benchmark::State& state) {
  shape& s = shape::get(static_cast<int>(state.range(0)));
  const bench::tier_pin tier(state, 1);
  if (!tier.ok) return;
  shape::outputs out;
  // A first pass with no room counts the entries; size the outputs to them.
  cof::comparer_multi_swar_lanes(s.args(out), 0, s.loci.size());
  const u32 demand = out.count;
  out.mm.resize(demand);
  out.query.resize(demand);
  out.dir.resize(demand);
  out.loci.resize(demand);
  const cof::comparer_multi_swar_args a = s.args(out);
  for (auto _ : state) {
    out.count = 0;
    cof::comparer_multi_swar_lanes(a, 0, s.loci.size());
    benchmark::DoNotOptimize(out.mm.data());
    benchmark::DoNotOptimize(out.count);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * s.loci.size() * s.queries.size()));
  state.counters["loci"] = static_cast<double>(s.loci.size());
  state.counters["entries/iter"] = static_cast<double>(demand);
  state.SetLabel(std::string(s.name) + " | " + util::tier_name(util::lane_tier()));
}

}  // namespace

BENCHMARK(bm_comparer_variant)
    ->DenseRange(0, cof::kNumComparerVariants - 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_comparer_threshold)
    ->Arg(0)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_comparer_shape)->DenseRange(0, 1)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_comparer_lanes)
    ->ArgsProduct({{0, 1}, bench::kLaneTiers})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
