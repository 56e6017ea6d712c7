// Ablation: work-group size. The paper pins 256 for the SYCL application
// while the OpenCL runtime chooses its own (wavefront-sized) groups; this
// sweep measures the simulated-accelerator cost and the modelled device
// time across work-group sizes.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "util/log.hpp"

namespace {

void bm_wgsize_pipeline(benchmark::State& state) {
  util::set_log_level(util::log_level::warn);
  static auto ds = bench::make_dataset("hg19", 16384);
  const auto wg = static_cast<util::usize>(state.range(0));
  cof::engine_options opt;
  opt.backend = cof::backend_kind::sycl;
  opt.wg_size = wg;
  opt.max_chunk = 256 << 10;
  size_t records = 0;
  for (auto _ : state) {
    auto out = cof::run_search(ds.cfg, ds.g, opt);
    records = out.records.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["records"] = static_cast<double>(records);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.g.total_bases()));
}

void bm_wgsize_modelled(benchmark::State& state) {
  // Modelled device seconds for the comparer as a function of wg size
  // (single instrumented run per size; benchmark loops only the projection).
  util::set_log_level(util::log_level::warn);
  static auto ds = bench::make_dataset("hg19", 8192);
  const auto wg = static_cast<util::u32>(state.range(0));
  auto m = bench::run_counting(ds, cof::backend_kind::sycl,
                               cof::comparer_variant::base, wg);
  auto in = bench::make_projection(ds, m, cof::comparer_variant::base, wg);
  double secs = 0;
  for (auto _ : state) {
    auto proj = gpumodel::project_elapsed(gpumodel::gpu_by_name("RVII"), in);
    secs = proj.comparer_s;
    benchmark::DoNotOptimize(proj);
  }
  state.counters["modelled_comparer_s"] = secs;
}

}  // namespace

BENCHMARK(bm_wgsize_pipeline)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_wgsize_modelled)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
