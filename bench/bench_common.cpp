#include "bench_common.hpp"

#include <cstdio>

#include "util/log.hpp"

namespace bench {

dataset make_dataset(const std::string& which, u64 scale) {
  dataset ds;
  ds.name = which;
  const auto params = which == "hg38" ? genome::hg38_like(scale)
                                      : genome::hg19_like(scale);
  ds.g = genome::generate(params);
  ds.scale = static_cast<double>(scale);
  ds.cfg = cof::parse_input(cof::example_input("synth:" + which));
  ds.full_bases = static_cast<u64>(ds.g.total_bases()) * scale;
  ds.target_chunks = util::ceil_div<u64>(ds.full_bases, kTargetChunkBytes);
  return ds;
}

measured_run run_counting(const dataset& ds, cof::backend_kind backend,
                          cof::comparer_variant variant, usize wg_size) {
  measured_run m;
  cof::engine_options opt;
  opt.backend = backend;
  opt.variant = variant;
  opt.wg_size = wg_size;
  opt.max_chunk = kSimChunkBytes;
  opt.counting = true;
  opt.profiler = m.profile.get();
  auto outcome = cof::run_search(ds.cfg, ds.g, opt);
  m.metrics = outcome.metrics;
  m.records = std::move(outcome.records);
  const double kernel_s =
      static_cast<double>(m.metrics.pipeline.kernel_nanos) * 1e-9;
  m.host_seconds = std::max(0.0, m.metrics.elapsed_seconds - kernel_s);
  return m;
}

gpumodel::projection_input make_projection(const dataset& ds, const measured_run& m,
                                           cof::comparer_variant variant,
                                           u32 wg_size) {
  gpumodel::projection_input in;
  in.profile = m.profile.get();
  in.pipeline = m.metrics.pipeline;
  in.scale = ds.scale;
  in.wg_size = wg_size;
  in.variant = variant;
  // Host share: the instrumented CPU run's host-side time stands in for the
  // workstation host; the counting instrumentation does not inflate it
  // because it only taxes kernel execution, which is excluded. A real host
  // is assumed comparable to this one; scaled linearly, damped by the
  // target's larger chunks (fewer per-chunk overheads).
  in.host_seconds = m.host_seconds *
                    static_cast<double>(kSimChunkBytes) /
                    static_cast<double>(kTargetChunkBytes);
  in.target_chunks = ds.target_chunks;
  in.queries = ds.cfg.queries.size();
  return in;
}

void print_banner(const char* table, const char* what) {
  util::set_log_level(util::log_level::warn);
  std::printf("================================================================\n");
  std::printf("%s — %s\n", table, what);
  std::printf("Substrate: cof simulated accelerator (CPU ND-range engine);\n");
  std::printf("device numbers are projections from measured kernel event\n");
  std::printf("counts through the gpumodel (see DESIGN.md / EXPERIMENTS.md).\n");
  std::printf("================================================================\n");
}

}  // namespace bench
