// Microbenchmark: comparer kernel variants on the simulated accelerator
// (CPU wall time per locus; google-benchmark), one guide per launch (opt6's
// batched comparer with a batch of one). Complements fig2_kernel_time, which
// reports modelled device time.
#include <benchmark/benchmark.h>

#include "core/pipeline.hpp"
#include "genome/synth.hpp"
#include "util/log.hpp"

namespace {

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

BENCHMARK_MAIN();
