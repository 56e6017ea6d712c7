// Microbenchmark: finder kernel throughput (positions/s on the simulated
// accelerator) across PAM patterns of different selectivity, for the
// per-position char finder (base) and opt6's packed-word finder side by
// side, plus chunk-size sensitivity of the full finder step.
#include <benchmark/benchmark.h>

#include <string>

#include "core/pipeline.hpp"
#include "genome/synth.hpp"
#include "util/log.hpp"

namespace {

genome::genome_t& test_genome() {
  static genome::genome_t g = [] {
    util::set_log_level(util::log_level::warn);
    return genome::generate(genome::hg19_like(8192, 13));
  }();
  return g;
}

// PAMs of decreasing selectivity: more hits -> larger loci traffic.
const char* kPatterns[] = {
    "NNNNNNNNNNNNNNNNNNNNTGG",  // fixed 3-base PAM (selective)
    "NNNNNNNNNNNNNNNNNNNNNGG",  // NGG
    "NNNNNNNNNNNNNNNNNNNNNRG",  // NRG (the paper's pattern)
    "NNNNNNNNNNNNNNNNNNNNNNG",  // NNG (permissive)
};

// Finder variants of the PAM sweep: the char finder every base..opt4 run
// uses, and opt6's packed-word finder (32 start positions per work-item).
const cof::comparer_variant kFinderVariants[] = {cof::comparer_variant::base,
                                                 cof::comparer_variant::opt6};

void bm_finder_pam(benchmark::State& state) {
  auto& g = test_genome();
  const char* pattern = kPatterns[state.range(0)];
  const cof::comparer_variant variant = kFinderVariants[state.range(1)];
  const auto pat = cof::make_pattern(pattern);
  cof::pipeline_options opt;
  opt.variant = variant;
  opt.wg_size = 256;
  auto pipe = cof::make_sycl_pipeline(opt);
  const auto& seq = g.chroms[0].seq;
  pipe->load_chunk(std::string_view(seq.data(), seq.size()));
  util::u64 hits = 0;
  for (auto _ : state) {
    hits = pipe->run_finder(pat);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seq.size()));
  state.counters["hit_rate_pct"] =
      100.0 * static_cast<double>(hits) / static_cast<double>(seq.size());
  state.SetLabel(std::string(pattern + 18) +
                 (variant == cof::comparer_variant::opt6 ? " packed" : " char"));
}

void bm_finder_chunk_size(benchmark::State& state) {
  auto& g = test_genome();
  const auto pat = cof::make_pattern("NNNNNNNNNNNNNNNNNNNNNRG");
  cof::pipeline_options opt;
  opt.variant = cof::comparer_variant::base;
  opt.wg_size = 256;
  auto pipe = cof::make_sycl_pipeline(opt);
  const auto chunk = static_cast<util::usize>(state.range(0));
  const auto& seq = g.chroms[0].seq;
  for (auto _ : state) {
    util::u64 total = 0;
    for (util::usize off = 0; off < seq.size(); off += chunk) {
      const auto len = std::min(chunk, seq.size() - off);
      pipe->load_chunk(std::string_view(seq.data() + off, len));
      total += pipe->run_finder(pat);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seq.size()));
}

}  // namespace

BENCHMARK(bm_finder_pam)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 3, 1), {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_finder_chunk_size)
    ->Arg(16 << 10)
    ->Arg(64 << 10)
    ->Arg(256 << 10)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
