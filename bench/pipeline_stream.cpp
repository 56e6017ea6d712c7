// Streaming-pipeline bench: multi-query throughput (bases/s) of the chunk
// runner on a synthetic multi-chromosome FASTA — opt6's one batched
// comparer launch per chunk with a deferred download, the decode overlap
// and pool-side formatting. The mostly-N pattern keeps the finder cheap so
// the comparer, which covers all 8 queries per launch, dominates.
// Emits BENCH_pipeline.json.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine_stream.hpp"
#include "genome/fasta_stream.hpp"
#include "genome/synth.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace {

using namespace cof;
using util::u64;
using util::usize;

// Single-base PAM: ~1/4 of positions per strand become finder loci, so the
// comparer stage — whose per-item and per-launch overheads one launch
// amortises across all 8 queries — carries the bulk of the work.
constexpr const char* kPattern = "NNNNNNNNNNNNNNNNNNNNNNG";
constexpr usize kNumQueries = 8;

// Genome-derived 20-mers (N-free) + "NNN" don't-care tail over the PAM, with
// tight mismatch budgets so the comparer early-exits and its fixed per-item
// and per-launch costs dominate.
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
  u64 comparer_launches = 0;
  u64 chunks = 0;
  stream_stage_times stages;
  std::vector<stream_stage_times> queue_stages;
  usize peak_queue_depth = 0;
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
    r.comparer_launches = out.metrics.pipeline.comparer_launches;
    r.chunks = out.metrics.chunks;
    r.stages = out.stage_times;
    r.queue_stages = out.queue_stages;
    r.peak_queue_depth = out.peak_queue_depth;
  }
  return r;
}

void print_stage_table(const char* label, const mode_result& r) {
  std::printf("\nwhere did the time go (%s):\n", label);
  std::printf("  decode %.3fs  queue-wait %.3fs  device %.3fs  format %.3fs  "
              "merge %.3fs\n",
              r.stages.decode_s, r.stages.queue_wait_s, r.stages.device_s,
              r.stages.format_s, r.stages.merge_s);
  for (usize i = 0; i < r.queue_stages.size(); ++i) {
    const auto& q = r.queue_stages[i];
    std::printf("  q%zu: wait %.3fs  device %.3fs  format %.3fs\n", i,
                q.queue_wait_s, q.device_s, q.format_s);
  }
  if (r.peak_queue_depth != 0) {
    std::printf("  peak queue depth %zu\n", r.peak_queue_depth);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::cli cli("pipeline_stream",
                "streamed multi-query bases/s of the chunk runner, one batched "
                "comparer launch per chunk");
  cli.opt("scale", "hg19 scale divisor for the synthetic genome", "1024");
  cli.opt("chunk", "max_chunk fed to the device (bytes)", "262144");
  cli.opt("reps", "timed repetitions", "3");
  cli.opt("out", "output JSON path", "BENCH_pipeline.json");
  cli.opt("trace-out",
          "write a Chrome trace-event JSON (Perfetto-loadable) of one extra "
          "untimed run", "");
  cli.opt("metrics-json",
          "write the obs metrics-registry snapshot of that run", "");
  if (!cli.parse(argc, argv)) return 1;
  util::set_log_level(util::log_level::warn);

  const u64 scale = cli.get_u64("scale");
  const u64 chunk = cli.get_u64("chunk");
  const u64 reps = cli.get_u64("reps");

  bench::print_banner("pipeline_stream",
                      "streamed multi-query throughput: one batched launch per "
                      "chunk");

  auto g = genome::generate(genome::hg19_like(scale, 13));
  const u64 bases = g.total_bases();
  const auto fasta =
      (std::filesystem::temp_directory_path() /
       ("cof_bench_pipeline_" + std::to_string(::getpid()) + ".fa"))
          .string();
  genome::write_fasta_file(fasta, g.chroms);

  search_config cfg;
  cfg.pattern = kPattern;
  cfg.queries = make_queries(g);
  std::printf("genome: %llu bases, %zu chromosomes; %zu queries, chunk %llu\n\n",
              static_cast<unsigned long long>(bases), g.chroms.size(),
              cfg.queries.size(), static_cast<unsigned long long>(chunk));

  engine_options opt;
  opt.backend = backend_kind::sycl;
  opt.max_chunk = static_cast<usize>(chunk);

  const mode_result batched = run_mode(cfg, fasta, opt, reps);

  // Tracing runs separately from the timed reps so the exporter cost never
  // pollutes the numbers above.
  const std::string trace_out = cli.get("trace-out");
  const std::string metrics_json = cli.get("metrics-json");
  if (!trace_out.empty() || !metrics_json.empty()) {
    engine_options topt = opt;
    topt.trace_out = trace_out;
    topt.metrics_json = metrics_json;
    const auto traced = run_search_streaming(cfg, fasta, topt);
    if (!trace_out.empty()) std::printf("wrote %s\n", trace_out.c_str());
    if (!metrics_json.empty()) std::printf("wrote %s\n", metrics_json.c_str());
    // Per-queue stage seconds of the traced run itself, so the span totals
    // in the trace can be reconciled against the same run's accounting.
    for (usize q = 0; q < traced.queue_stages.size(); ++q) {
      const auto& s = traced.queue_stages[q];
      std::printf("traced q%zu: wait %.3fs  device %.3fs  format %.3fs\n", q,
                  s.queue_wait_s, s.device_s, s.format_s);
    }
  }
  std::filesystem::remove(fasta);

  const double batched_bps =
      1e9 * static_cast<double>(bases) / static_cast<double>(batched.best_nanos);

  std::printf("batched  : %10llu ns  %12.0f bases/s  comparer launches %llu  "
              "chunks %llu\n",
              static_cast<unsigned long long>(batched.best_nanos), batched_bps,
              static_cast<unsigned long long>(batched.comparer_launches),
              static_cast<unsigned long long>(batched.chunks));
  print_stage_table("batched, best-rep", batched);

  const std::string out = cli.get("out");
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"pipeline_stream\",\n  \"scale\": %llu,\n"
               "  \"genome_bases\": %llu,\n  \"chunk\": %llu,\n"
               "  \"queries\": %zu,\n  \"reps\": %llu,\n",
               static_cast<unsigned long long>(scale),
               static_cast<unsigned long long>(bases),
               static_cast<unsigned long long>(chunk), cfg.queries.size(),
               static_cast<unsigned long long>(reps));
  std::fprintf(f,
               "  \"batched\": {\"best_nanos\": %llu, \"bases_per_s\": %.0f, "
               "\"comparer_launches\": %llu, \"chunks\": %llu},\n",
               static_cast<unsigned long long>(batched.best_nanos), batched_bps,
               static_cast<unsigned long long>(batched.comparer_launches),
               static_cast<unsigned long long>(batched.chunks));
  std::fprintf(f,
               "  \"batched_stages\": {\"decode_s\": %.6f, \"queue_wait_s\": %.6f, "
               "\"device_s\": %.6f, \"format_s\": %.6f, \"merge_s\": %.6f, "
               "\"peak_queue_depth\": %zu}\n}\n",
               batched.stages.decode_s, batched.stages.queue_wait_s,
               batched.stages.device_s, batched.stages.format_s,
               batched.stages.merge_s, batched.peak_queue_depth);
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
