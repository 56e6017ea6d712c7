// Optimisation-ladder ablation (base..opt6): for every comparer variant, one
// counting pass collects the device-event profile (global loads, chain
// compares, SWAR word evaluations) and repeated direct
// passes measure simulated wall time — on both dispatch paths (the host's
// SIMD lane rows and the COF_FORCE_SCALAR per-item fallback; they only diverge
// at opt6, where the lane body exists). Every rung compares one guide, as a
// one-guide batch: base..opt4 launch their per-query kernel, opt6 its
// batched comparer. A second section isolates the
// executor ablation: the same comparer launch on the fiber scheduler vs the
// two-phase single-leading-barrier fast path. Emits BENCH_opt_ladder.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "core/kernels.hpp"
#include "core/pipeline.hpp"
#include "util/cli.hpp"
#include "util/cpufeat.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "xpu/device.hpp"

namespace {

using namespace cof;
using util::u64;

constexpr const char* kPattern = "NNNNNNNNNNNNNNNNNNNNNRG";
constexpr const char* kQuery = "GGCCGACCTGTCGCTGACGCNNN";

struct variant_row {
  std::string name;
  u64 wall_nanos = 0;         // best-of-reps wall time, SIMD lanes allowed
  u64 wall_scalar_nanos = 0;  // best-of-reps wall time, forced-scalar path
  u64 global_loads = 0;
  u64 global_load_repeats = 0;
  u64 compares = 0;   // 14-way chain evaluations
  u64 swar_ops = 0;   // 64-bit SWAR word evaluations (opt6)
  u64 entries = 0;
};

/// Best-of-reps comparer wall time on the currently selected dispatch path.
u64 timed_pass(comparer_variant v, const std::string& chunk,
               const device_pattern& pat, const device_pattern& query, u64 reps,
               u64& entries_out) {
  pipeline_options opt;
  opt.variant = v;
  opt.wg_size = 256;
  auto pipe = make_sycl_pipeline(opt);
  pipe->load_chunk(chunk);
  pipe->run_finder(pat);
  pipe->run_comparers({query}, {5});  // warm-up
  u64 best = ~u64{0};
  for (u64 r = 0; r < reps; ++r) {
    util::stopwatch sw;
    auto e = pipe->run_comparers({query}, {5});
    best = std::min(best, sw.nanos());
    entries_out = e.size();
  }
  return best;
}

variant_row measure_variant(comparer_variant v, const std::string& chunk,
                            const device_pattern& pat, const device_pattern& query,
                            u64 reps) {
  variant_row row;
  row.name = comparer_variant_name(v);

  // Counting pass: one instrumented comparer launch, events via the profiler.
  {
    prof::profiler profile;
    pipeline_options opt;
    opt.variant = v;
    opt.wg_size = 256;
    opt.counting = true;
    opt.profiler = &profile;
    auto pipe = make_sycl_pipeline(opt);
    pipe->load_chunk(chunk);
    pipe->run_finder(pat);
    pipe->run_comparers({query}, {5});
    const auto prof = profile.get(std::string("comparer/") + row.name);
    row.global_loads = prof.events[prof::ev::global_load];
    row.global_load_repeats = prof.events[prof::ev::global_load_repeat];
    row.compares = prof.events[prof::ev::compare];
    row.swar_ops = prof.events[prof::ev::swar_op];
  }

  // Timed passes: direct (uninstrumented) kernels, best-of-reps wall time,
  // once per dispatch path.
  row.wall_nanos = timed_pass(v, chunk, pat, query, reps, row.entries);
  {
    const util::simd_tier prev = util::tier_cap();
    util::cap_tier(util::simd_tier::scalar);
    u64 entries_scalar = 0;
    row.wall_scalar_nanos = timed_pass(v, chunk, pat, query, reps, entries_scalar);
    util::cap_tier(prev);
  }
  return row;
}

// --------------------------------------------------------------------------
// Executor ablation: identical comparer launch, fiber scheduler vs the
// two-phase fast path. Direct xpu launches so single_leading_barrier can be
// toggled independently of everything else.
// --------------------------------------------------------------------------

struct exec_result {
  u64 fiber_wall_nanos = 0;
  u64 two_phase_wall_nanos = 0;
  bool identical = false;
};

struct site_list {
  std::vector<u32> loci;
  std::vector<char> flags;
};

site_list find_sites(xpu::device& dev, const std::string& chunk,
                     const device_pattern& pat) {
  const u32 chrsize = static_cast<u32>(chunk.size() - pat.plen + 1);
  std::vector<u32> loci(chunk.size(), 0);
  std::vector<char> flags(chunk.size(), -1);
  u32 count = 0;

  xpu::launch_config cfg;
  cfg.name = "finder";
  cfg.global[0] = util::round_up<usize>(chrsize, 256);
  cfg.local[0] = 256;
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
  dev.run(cfg, [&](xpu::xitem& it) {
    char* base = it.local_mem_base();
    const usize idx_off = util::round_up<usize>(pat.device_chars(), 8);
    a.l_pat = base;
    a.l_pat_index = reinterpret_cast<i32*>(base + idx_off);
    finder_kernel<direct_mem>(it, a);
  });

  site_list s;
  std::vector<std::pair<u32, char>> z;
  for (u32 i = 0; i < count; ++i) z.emplace_back(loci[i], flags[i]);
  std::sort(z.begin(), z.end());
  for (auto& [l, f] : z) {
    s.loci.push_back(l);
    s.flags.push_back(f);
  }
  return s;
}

exec_result measure_executor(const std::string& chunk, const device_pattern& pat,
                             const device_pattern& query, u64 reps) {
  xpu::device dev("ablation", 0);
  const site_list sites = find_sites(dev, chunk, pat);
  const u32 n = static_cast<u32>(sites.loci.size());
  const usize cap = static_cast<usize>(n) * 2;

  auto launch = [&](bool two_phase) {
    std::vector<u16> mm(cap, 0);
    std::vector<char> dir(cap, 0);
    std::vector<u32> mloci(cap, 0);
    u32 count = 0;

    xpu::launch_config cfg;
    cfg.name = two_phase ? "comparer_opt3/two_phase" : "comparer_opt3/fiber";
    cfg.global[0] = util::round_up<usize>(n, 256);
    cfg.local[0] = 256;
    cfg.local_mem_bytes = query.device_chars() * (1 + sizeof(i32)) + 128;
    cfg.uses_barrier = true;
    cfg.single_leading_barrier = two_phase;
    comparer_args a;
    a.locicnts = n;
    a.chr = chunk.data();
    a.loci = sites.loci.data();
    a.flag = sites.flags.data();
    a.comp = query.data();
    a.comp_index = query.index_data();
    a.plen = query.plen;
    a.threshold = 5;
    a.mm_count = mm.data();
    a.direction = dir.data();
    a.mm_loci = mloci.data();
    a.entrycount = &count;

    u64 best = ~u64{0};
    for (u64 r = 0; r <= reps; ++r) {  // rep 0 is warm-up
      count = 0;
      auto stats = dev.run(cfg, [&](xpu::xitem& it) {
        char* base = it.local_mem_base();
        const usize idx_off = util::round_up<usize>(query.device_chars(), 8);
        a.l_comp = base;
        a.l_comp_index = reinterpret_cast<i32*>(base + idx_off);
        comparer_dispatch<direct_mem>(comparer_variant::opt3, it, a);
      });
      if (r > 0) best = std::min(best, stats.wall_nanos);
    }
    std::vector<std::tuple<u32, char, u16>> z;
    for (u32 i = 0; i < count; ++i) z.emplace_back(mloci[i], dir[i], mm[i]);
    std::sort(z.begin(), z.end());
    return std::pair{best, z};
  };

  auto [fib_ns, fib_entries] = launch(false);
  auto [two_ns, two_entries] = launch(true);
  return {fib_ns, two_ns, fib_entries == two_entries};
}

}  // namespace

int main(int argc, char** argv) {
  util::cli cli("ablation_opt_ladder",
                "Optimisation-ladder ablation (base..opt6) + executor fast path");
  cli.opt("scale", "hg19 scale divisor; the chunk is the largest synthetic chromosome (scale 8192 -> ~30 kb)", "8192");
  cli.opt("reps", "timed repetitions per measurement", "5");
  cli.opt("out", "output JSON path", "BENCH_opt_ladder.json");
  if (!cli.parse(argc, argv)) return 1;
  util::set_log_level(util::log_level::warn);

  const u64 scale = cli.get_u64("scale");
  const u64 reps = cli.get_u64("reps");

  bench::print_banner("opt_ladder",
                      "simulated comparer wall time + counted device events per "
                      "variant, both dispatch paths; fiber vs two-phase "
                      "executor");
  std::printf("simd lanes: %s\n", util::simd_lanes_enabled()
                                      ? util::tier_name(util::lane_tier())
                                      : "disabled (scalar)");

  auto g = genome::generate(genome::hg19_like(scale, 11));
  const auto& seq = g.chroms[0].seq;
  const std::string chunk(seq.data(), seq.size());
  const auto pat = make_pattern(kPattern);
  const auto query = make_query(kQuery);
  std::printf("chunk: %zu bases (hg19/%llu largest chromosome)\n\n", chunk.size(),
              static_cast<unsigned long long>(scale));

  std::vector<variant_row> rows;
  for (int v = 0; v < kNumComparerVariants; ++v) {
    rows.push_back(measure_variant(static_cast<comparer_variant>(v), chunk, pat,
                                   query, reps));
    const auto& r = rows.back();
    std::printf("%-8s wall %10llu ns (scalar %10llu)  gload %8llu (+%llu rep)  "
                "compare %8llu  swar_op %6llu  entries %llu\n",
                r.name.c_str(), static_cast<unsigned long long>(r.wall_nanos),
                static_cast<unsigned long long>(r.wall_scalar_nanos),
                static_cast<unsigned long long>(r.global_loads),
                static_cast<unsigned long long>(r.global_load_repeats),
                static_cast<unsigned long long>(r.compares),
                static_cast<unsigned long long>(r.swar_ops),
                static_cast<unsigned long long>(r.entries));
  }

  const exec_result ex = measure_executor(chunk, pat, query, reps);
  std::printf("\nexecutor (comparer opt3, wg 256): fiber %llu ns, two-phase %llu "
              "ns (%.2fx)  results %s\n",
              static_cast<unsigned long long>(ex.fiber_wall_nanos),
              static_cast<unsigned long long>(ex.two_phase_wall_nanos),
              ex.two_phase_wall_nanos
                  ? static_cast<double>(ex.fiber_wall_nanos) /
                        static_cast<double>(ex.two_phase_wall_nanos)
                  : 0.0,
              ex.identical ? "identical" : "DIVERGED");

  const std::string out = cli.get("out");
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"opt_ladder\",\n  \"scale\": %llu,\n"
               "  \"chunk_bases\": %zu,\n  \"simd_lanes\": %s,\n",
               static_cast<unsigned long long>(scale), chunk.size(),
               util::simd_lanes_enabled() ? "true" : "false");
  std::fprintf(f, "  \"variants\": [\n");
  for (usize i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"variant\": \"%s\", \"wall_nanos\": %llu, "
                 "\"wall_scalar_nanos\": %llu, "
                 "\"global_loads\": %llu, \"global_load_repeats\": %llu, "
                 "\"compares\": %llu, \"swar_ops\": %llu, "
                 "\"entries\": %llu}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.wall_nanos),
                 static_cast<unsigned long long>(r.wall_scalar_nanos),
                 static_cast<unsigned long long>(r.global_loads),
                 static_cast<unsigned long long>(r.global_load_repeats),
                 static_cast<unsigned long long>(r.compares),
                 static_cast<unsigned long long>(r.swar_ops),
                 static_cast<unsigned long long>(r.entries),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"executor\": {\"kernel\": \"comparer_opt3\", "
               "\"fiber_wall_nanos\": %llu, \"two_phase_wall_nanos\": %llu, "
               "\"identical\": %s}\n}\n",
               static_cast<unsigned long long>(ex.fiber_wall_nanos),
               static_cast<unsigned long long>(ex.two_phase_wall_nanos),
               ex.identical ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", out.c_str());
  return ex.identical ? 0 : 2;
}
