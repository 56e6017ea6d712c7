// Ablation: 2-bit packed vs plain-char sequence handling (§V: the upstream
// authors' 2-bit format optimisation [21]). Measures encode/decode
// throughput, random access, ambiguity scans, and the host->device transfer
// volume saved by shipping packed chunks.
#include <benchmark/benchmark.h>

#include "core/engine.hpp"
#include "genome/synth.hpp"
#include "genome/twobit.hpp"
#include "util/log.hpp"
#include "xpu/device.hpp"

namespace {

const std::string& test_seq() {
  static std::string seq = [] {
    util::set_log_level(util::log_level::warn);
    auto g = genome::generate(genome::hg19_like(16384, 17));
    return g.chroms[0].seq;
  }();
  return seq;
}

void bm_twobit_encode(benchmark::State& state) {
  const auto& seq = test_seq();
  for (auto _ : state) {
    auto packed = genome::twobit_seq::encode(seq);
    benchmark::DoNotOptimize(packed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seq.size()));
}

void bm_twobit_decode(benchmark::State& state) {
  const auto packed = genome::twobit_seq::encode(test_seq());
  for (auto _ : state) {
    auto seq = packed.decode();
    benchmark::DoNotOptimize(seq);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packed.size()));
}

void bm_twobit_random_access(benchmark::State& state) {
  const auto packed = genome::twobit_seq::encode(test_seq());
  util::rng rng(99);
  util::u64 sum = 0;
  for (auto _ : state) {
    sum += static_cast<util::u64>(packed.at(rng.next_below(packed.size())));
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void bm_char_random_access(benchmark::State& state) {
  const auto& seq = test_seq();
  util::rng rng(99);
  util::u64 sum = 0;
  for (auto _ : state) {
    sum += static_cast<util::u64>(seq[rng.next_below(seq.size())]);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void bm_ambiguity_scan(benchmark::State& state) {
  const auto packed = genome::twobit_seq::encode(test_seq());
  const util::usize window = static_cast<util::usize>(state.range(0));
  util::u64 clean = 0;
  for (auto _ : state) {
    clean = 0;
    for (util::usize pos = 0; pos + window <= packed.size(); pos += window) {
      if (!packed.range_has_ambiguity(pos, window)) ++clean;
    }
    benchmark::DoNotOptimize(clean);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packed.size()));
}

void bm_transfer_char_vs_packed(benchmark::State& state) {
  // Upload volume comparison: chars vs packed payloads into device memory.
  const auto& seq = test_seq();
  const auto packed = genome::twobit_seq::encode(seq);
  const bool use_packed = state.range(0) != 0;
  auto& dev = xpu::device::simulator();
  for (auto _ : state) {
    if (use_packed) {
      xpu::device_buffer buf(dev, packed.packed_bytes());
      buf.write(0, packed.packed().data(), packed.packed_bytes());
      benchmark::DoNotOptimize(buf.data());
    } else {
      xpu::device_buffer buf(dev, seq.size());
      buf.write(0, seq.data(), seq.size());
      benchmark::DoNotOptimize(buf.data());
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seq.size()));
  state.SetLabel(use_packed ? "2-bit (4x smaller upload)" : "char");
}

void bm_pipeline_char_vs_packed(benchmark::State& state) {
  // End-to-end search: char chunks vs 2-bit packed chunks (the upstream
  // optimisation [21]); counters expose the upload saving.
  util::set_log_level(util::log_level::warn);
  static genome::genome_t g = [] {
    genome::synth_params p;
    p.assembly = "tb-bench";
    p.chromosomes = {{"chrA", 200000}};
    p.seed = 41;
    return genome::generate(p);
  }();
  static const cof::search_config cfg =
      cof::parse_input(cof::example_input("<mem>"));
  const bool packed = state.range(0) != 0;
  cof::engine_options opt;
  opt.backend = packed ? cof::backend_kind::sycl_twobit : cof::backend_kind::sycl;
  // The upstream format against plain chars; opt6 would upload words on both.
  opt.variant = cof::comparer_variant::base;
  opt.max_chunk = 64 << 10;
  util::u64 h2d = 0;
  size_t records = 0;
  for (auto _ : state) {
    auto out = cof::run_search(cfg, g, opt);
    h2d = out.metrics.pipeline.h2d_bytes;
    records = out.records.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.total_bases()));
  state.counters["h2d_bytes"] = static_cast<double>(h2d);
  state.counters["records"] = static_cast<double>(records);
  state.SetLabel(packed ? "2-bit pipeline" : "char pipeline");
}

void bm_pipeline_buffers_vs_usm(benchmark::State& state) {
  // Memory-abstraction ablation (paper §III.A): buffers vs USM host program.
  util::set_log_level(util::log_level::warn);
  static genome::genome_t g = [] {
    genome::synth_params p;
    p.assembly = "usm-bench";
    p.chromosomes = {{"chrA", 200000}};
    p.seed = 42;
    return genome::generate(p);
  }();
  static const cof::search_config cfg =
      cof::parse_input(cof::example_input("<mem>"));
  const bool usm = state.range(0) != 0;
  cof::engine_options opt;
  opt.backend = usm ? cof::backend_kind::sycl_usm : cof::backend_kind::sycl;
  opt.max_chunk = 64 << 10;
  for (auto _ : state) {
    auto out = cof::run_search(cfg, g, opt);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.total_bases()));
  state.SetLabel(usm ? "USM host program" : "buffer host program");
}

}  // namespace

BENCHMARK(bm_pipeline_char_vs_packed)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_pipeline_buffers_vs_usm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_twobit_encode)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_twobit_decode)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_twobit_random_access);
BENCHMARK(bm_char_random_access);
BENCHMARK(bm_ambiguity_scan)->Arg(23)->Arg(1024);
BENCHMARK(bm_transfer_char_vs_packed)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
