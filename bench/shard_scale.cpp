// Multi-device shard-scaling bench: the streamed engine fanning chunks over
// N simulated devices (each with its own pool, consumers and pipelines, all
// taking from one chunk queue), the per-consumer spill runs folded into the
// same k-way merge. Two result sets:
//
//   measured  — wall-clock bases/s of the CPU simulation at devices
//               {1, 2, 4}, with byte-identity against the single-device
//               reference checked on every row (exit 2 on divergence) and
//               the per-device chunk/stage metrics recorded. Wall
//               scaling here is capped by the host core count (the devices
//               are simulated on the same cores), so the wall numbers are a
//               correctness-under-load soak, not the scaling claim.
//   projected — device elapsed seconds through the gpumodel from an
//               instrumented run. Sharding divides the device-side work
//               (kernel compute, transfers, launch gaps) across the set
//               while the host spine (decode + orchestration) stays serial:
//               elapsed(d) = max(host, (compute + transfer + launch)/d),
//               elapsed(1) = the full serial sum.
//
// Emits BENCH_shard.json.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/engine_stream.hpp"
#include "genome/synth.hpp"
#include "gpumodel/projector.hpp"
#include "gpumodel/specs.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace {

using namespace cof;
using util::u64;
using util::usize;

// Same regime as multiqueue_stream: cheap single-base-PAM finder, so the
// per-chunk serial overheads are what the extra devices absorb.
constexpr const char* kPattern = "NNNNNNNNNNNNNNNNNNNNNNG";
constexpr usize kNumQueries = 8;

std::vector<query_spec> make_queries(const genome::genome_t& g) {
  std::vector<query_spec> qs;
  const std::string& seq = g.chroms[0].seq;
  usize pos = 64;
  while (qs.size() < kNumQueries && pos + 20 < seq.size()) {
    std::string core = seq.substr(pos, 20);
    pos += seq.size() / (kNumQueries + 2);
    if (core.find('N') != std::string::npos) continue;
    qs.push_back({core + "NNN", static_cast<util::u16>(1 + qs.size() % 2)});
  }
  while (qs.size() < kNumQueries) {  // degenerate genomes only
    qs.push_back({"GGCCGACCTGTCGCTGACGCNNN", 1});
  }
  return qs;
}

struct mode_result {
  u64 best_nanos = ~u64{0};
  u64 total_records = 0;
  u64 chunks = 0;
  u64 reassigns = 0;
  std::vector<ot_record> records;
  std::vector<streamed_outcome::shard_device_stats> devices;
};

mode_result run_mode(const search_config& cfg, const std::string& fasta,
                     const engine_options& opt, u64 reps) {
  mode_result r;
  for (u64 rep = 0; rep <= reps; ++rep) {  // rep 0 is warm-up
    util::stopwatch sw;
    auto out = run_search_streaming(cfg, fasta, opt);
    const u64 ns = sw.nanos();
    if (rep == 0) continue;
    if (ns < r.best_nanos) r.best_nanos = ns;
    r.total_records = out.total_records;
    r.chunks = out.metrics.chunks;
    r.reassigns = out.shard_reassigns;
    r.records = std::move(out.records);
    r.devices = std::move(out.device_shards);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::cli cli("shard_scale",
                "multi-device shard scaling: byte-identity + per-device "
                "metrics at devices {1,2,4}, gpumodel-projected elapsed");
  cli.opt("scale", "hg19 scale divisor for the synthetic genome", "1024");
  cli.opt("chunk", "max_chunk fed to the chunk queue (bytes)", "65536");
  cli.opt("queues", "consumers per shard device", "2");
  cli.opt("reps", "timed repetitions per device count", "3");
  cli.opt("proj-scale", "scale divisor for the instrumented projection run",
          "512");
  cli.opt("out", "output JSON path", "BENCH_shard.json");
  if (!cli.parse(argc, argv)) return 1;
  util::set_log_level(util::log_level::warn);

  const u64 scale = cli.get_u64("scale");
  const u64 chunk = cli.get_u64("chunk");
  const u64 queues = cli.get_u64("queues");
  const u64 reps = cli.get_u64("reps");
  const u64 proj_scale = cli.get_u64("proj-scale");

  bench::print_banner("shard_scale",
                      "streamed byte-identity and per-device accounting vs "
                      "num_devices; device-count scaling is projected");

  auto g = genome::generate(genome::hg19_like(scale, 17));
  const u64 bases = g.total_bases();
  const auto fasta =
      (std::filesystem::temp_directory_path() /
       ("cof_bench_shard_" + std::to_string(::getpid()) + ".fa"))
          .string();
  genome::write_fasta_file(fasta, g.chroms);

  search_config cfg;
  cfg.pattern = kPattern;
  cfg.queries = make_queries(g);
  std::printf("genome: %llu bases, %zu chromosomes; %zu queries, chunk %llu, "
              "%llu queues/device\n\n",
              static_cast<unsigned long long>(bases), g.chroms.size(),
              cfg.queries.size(), static_cast<unsigned long long>(chunk),
              static_cast<unsigned long long>(queues));

  engine_options opt;
  opt.backend = backend_kind::sycl;
  opt.max_chunk = static_cast<usize>(chunk);
  opt.num_queues = static_cast<usize>(queues);

  const std::vector<usize> device_counts = {1, 2, 4};
  std::vector<mode_result> runs;
  for (const usize nd : device_counts) {
    opt.num_devices = nd;
    runs.push_back(run_mode(cfg, fasta, opt, reps));
  }
  std::filesystem::remove(fasta);

  const auto bps = [bases](u64 nanos) {
    return 1e9 * static_cast<double>(bases) / static_cast<double>(nanos);
  };
  bool identical = true;
  for (usize i = 0; i < runs.size(); ++i) {
    identical = identical && runs[i].records == runs[0].records;
    std::printf(
        "devices=%zu : %10llu ns  %12.0f bases/s  chunks %llu  "
        "reassigns %llu\n",
        device_counts[i], static_cast<unsigned long long>(runs[i].best_nanos),
        bps(runs[i].best_nanos),
        static_cast<unsigned long long>(runs[i].chunks),
        static_cast<unsigned long long>(runs[i].reassigns));
    for (const auto& ds : runs[i].devices) {
      std::printf("    %-6s chunks %-4llu device %.3fs  format %.3fs\n",
                  ds.name.c_str(), static_cast<unsigned long long>(ds.chunks),
                  ds.stages.device_s, ds.stages.format_s);
    }
  }
  const unsigned host_cores =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("\nhost cores: %u  results %s\n", host_cores,
              identical ? "identical" : "DIVERGED");

  // Device projection: sharding splits the device-side seconds across the
  // set; the host decode/orchestration spine stays serial and becomes the
  // asymptote.
  std::printf("\nprojected device elapsed (MI100, hg19, %zu devices max):\n",
              device_counts.back());
  bench::dataset ds = bench::make_dataset("hg19", proj_scale);
  const auto run = bench::run_counting(ds, backend_kind::sycl,
                                       comparer_variant::base, /*wg=*/256);
  const auto in =
      bench::make_projection(ds, run, comparer_variant::base, /*wg=*/256);
  const auto& gpus = gpumodel::paper_gpus();
  const gpumodel::gpu_spec* gpu = &gpus.back();
  for (const auto& g2 : gpus) {
    if (g2.name == "MI100") gpu = &g2;
  }
  const auto proj = gpumodel::project_elapsed(*gpu, in);
  const double device_work_s =
      proj.finder_s + proj.comparer_s + proj.transfer_s + proj.launch_s;
  const double host_s = proj.host_s;
  const auto projected_s = [device_work_s, host_s](usize nd) {
    const double serial = device_work_s + host_s;
    if (nd <= 1) return serial;
    return std::max(host_s, device_work_s / static_cast<double>(nd));
  };
  std::printf("  device work %.2fs (finder %.2f + comparer %.2f + transfer "
              "%.2f + launch %.2f), host spine %.2fs\n",
              device_work_s, proj.finder_s, proj.comparer_s, proj.transfer_s,
              proj.launch_s, host_s);
  for (const usize nd : device_counts) {
    std::printf("  devices=%zu: %.2fs  %.2fx\n", nd, projected_s(nd),
                projected_s(1) / projected_s(nd));
  }
  const double speedup4 =
      projected_s(1) / projected_s(device_counts.back());
  std::printf("\nd%zu speedup %.2fx projected  results %s\n",
              device_counts.back(), speedup4,
              identical ? "identical" : "DIVERGED");

  const std::string out = cli.get("out");
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"shard_scale\",\n  \"scale\": %llu,\n"
               "  \"genome_bases\": %llu,\n  \"chunk\": %llu,\n"
               "  \"queues_per_device\": %llu,\n  \"queries\": %zu,\n"
               "  \"reps\": %llu,\n  \"host_cores\": %u,\n",
               static_cast<unsigned long long>(scale),
               static_cast<unsigned long long>(bases),
               static_cast<unsigned long long>(chunk),
               static_cast<unsigned long long>(queues), cfg.queries.size(),
               static_cast<unsigned long long>(reps), host_cores);
  std::fprintf(f, "  \"sharded\": [\n");
  for (usize i = 0; i < runs.size(); ++i) {
    std::fprintf(f,
                 "    {\"mode\": \"devices=%zu\", \"num_devices\": %zu, "
                 "\"best_nanos\": %llu, \"bases_per_s\": %.0f, "
                 "\"records\": %llu, \"chunks\": %llu, "
                 "\"reassigns\": %llu, \"devices\": [",
                 device_counts[i], device_counts[i],
                 static_cast<unsigned long long>(runs[i].best_nanos),
                 bps(runs[i].best_nanos),
                 static_cast<unsigned long long>(runs[i].total_records),
                 static_cast<unsigned long long>(runs[i].chunks),
                 static_cast<unsigned long long>(runs[i].reassigns));
    for (usize d = 0; d < runs[i].devices.size(); ++d) {
      const auto& dv = runs[i].devices[d];
      std::fprintf(f,
                   "%s{\"mode\": \"%s\", \"chunks\": %llu, "
                   "\"device_s\": %.6f, \"format_s\": %.6f}",
                   d == 0 ? "" : ", ", dv.name.c_str(),
                   static_cast<unsigned long long>(dv.chunks),
                   dv.stages.device_s, dv.stages.format_s);
    }
    std::fprintf(f, "]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"projected\": {\"device\": \"%s\", \"device_work_s\": "
               "%.3f, \"host_s\": %.3f, \"elapsed_s\": [%.3f, %.3f, %.3f], "
               "\"d4_speedup\": %.3f},\n",
               gpu->name.c_str(), device_work_s, host_s, projected_s(1),
               projected_s(2), projected_s(4), speedup4);
  std::fprintf(f, "  \"identical\": %s\n}\n", identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return identical ? 0 : 2;
}
