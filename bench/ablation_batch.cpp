// Ablation: single- vs multi-queue chunk distribution (the paper's stated
// single-device limitation).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "util/log.hpp"

namespace {

genome::genome_t& bench_genome() {
  static genome::genome_t g = [] {
    util::set_log_level(util::log_level::warn);
    genome::synth_params p;
    p.assembly = "batch-bench";
    p.chromosomes = {{"chrA", 300000}};
    p.seed = 91;
    return genome::generate(p);
  }();
  return g;
}

const cof::search_config& bench_config() {
  static const cof::search_config cfg =
      cof::parse_input(cof::example_input("<mem>"));
  return cfg;
}

void bm_num_queues(benchmark::State& state) {
  cof::engine_options opt;
  opt.backend = cof::backend_kind::sycl;
  opt.max_chunk = 32 << 10;
  opt.num_queues = static_cast<util::usize>(state.range(0));
  for (auto _ : state) {
    auto out = cof::run_search(bench_config(), bench_genome(), opt);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bench_genome().total_bases()));
}

}  // namespace

BENCHMARK(bm_num_queues)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
