// Index/query split bench: the cold path (FASTA decode + finder over every
// chunk + comparer) against the warm path (persisted .cofidx loaded once,
// comparer-only multi-query launches against device-resident candidate
// buffers). Three result sets:
//
//   cold vs warm — end-to-end wall time per facade at 8 guides. The warm
//                  path does zero decode and zero finder launches, so the
//                  speedup is the decode+finder share of the cold run; the
//                  acceptance bar is >= 5x with byte-identical records
//                  across all four facades.
//   load cost    — one-off .cofidx load (read + checksum + unpack) that a
//                  warm process pays before its first query.
//   coalescing   — warm opt6 query latency at 1/4/16 guides, batched (one
//                  comparer launch per chunk covering every guide) vs one
//                  query() call per guide: N guides for ~1 guide's launch
//                  cost.
//
// Emits BENCH_index.json.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine_stream.hpp"
#include "core/index.hpp"
#include "genome/synth.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using namespace cof;
using util::u64;
using util::usize;

// The CGG subtype of the SpCas9 NGG protospacer-adjacent motif: selective
// enough (1/64 of positions per strand) that the finder prunes nearly every
// position — exactly the candidate set the index caches, leaving the warm
// path a small comparer-only workload.
constexpr const char* kPattern = "NNNNNNNNNNNNNNNNNNNNCGG";

std::vector<query_spec> make_queries(const genome::genome_t& g, usize n) {
  std::vector<query_spec> qs;
  const std::string& seq = g.chroms[0].seq;
  usize pos = 64;
  while (qs.size() < n && pos + 20 < seq.size()) {
    std::string core = seq.substr(pos, 20);
    pos += seq.size() / (n + 2);
    if (core.find('N') != std::string::npos) continue;
    qs.push_back({core + "NNN", 1});
  }
  while (qs.size() < n) {  // degenerate genomes only
    qs.push_back({"GGCCGACCTGTCGCTGACGCNNN", 1});
  }
  return qs;
}

u64 best_of(u64 reps, const std::function<void()>& fn) {
  u64 best = ~u64{0};
  for (u64 rep = 0; rep <= reps; ++rep) {  // rep 0 is warm-up
    util::stopwatch sw;
    fn();
    const u64 ns = sw.nanos();
    if (rep > 0 && ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  util::cli cli("index_query",
                "index/query split: cold decode+finder+comparer run vs warm "
                "comparer-only queries against a persisted .cofidx");
  cli.opt("scale", "hg19 scale divisor for the synthetic genome", "1024");
  cli.opt("chunk", "max_chunk per device queue (bytes)", "262144");
  cli.opt("queues", "device queues per run", "2");
  cli.opt("guides", "guide count for the cold-vs-warm comparison", "8");
  cli.opt("reps", "timed repetitions per measurement", "3");
  cli.opt("out", "output JSON path", "BENCH_index.json");
  if (!cli.parse(argc, argv)) return 1;
  util::set_log_level(util::log_level::warn);

  const u64 scale = cli.get_u64("scale");
  const u64 chunk = cli.get_u64("chunk");
  const u64 queues = cli.get_u64("queues");
  const usize guides = cli.get_u64("guides");
  const u64 reps = cli.get_u64("reps");

  bench::print_banner("index_query",
                      "persisted genome/PAM index: warm comparer-only "
                      "queries vs the full cold pipeline");

  auto g = genome::generate(genome::hg19_like(scale, 17));
  const u64 bases = g.total_bases();
  const auto tmp = std::filesystem::temp_directory_path();
  const auto fasta =
      (tmp / ("cof_bench_index_" + std::to_string(::getpid()) + ".fa"))
          .string();
  const auto cofidx =
      (tmp / ("cof_bench_index_" + std::to_string(::getpid()) + ".cofidx"))
          .string();
  search_config cfg;
  cfg.pattern = kPattern;
  cfg.queries = make_queries(g, guides);
  // Plant real off-target sites for each guide so the byte-identity check
  // compares non-trivial record sets.
  for (usize qi = 0; qi < cfg.queries.size(); ++qi) {
    const std::string planted = cfg.queries[qi].seq.substr(0, 20) + "CGG";
    genome::plant_sites(g, planted, cfg.pattern, 25, 1, 91 + qi);
  }
  genome::write_fasta_file(fasta, g.chroms);

  engine_options opt;
  opt.max_chunk = static_cast<usize>(chunk);
  opt.num_queues = static_cast<usize>(queues);

  // One index serves every facade: the candidate set depends only on
  // (genome, PAM), not on the host programming model.
  opt.backend = backend_kind::sycl;
  util::stopwatch bsw;
  const genome_index idx = build_index(g, cfg.pattern, opt);
  const u64 build_ns = bsw.nanos();
  save_index(cofidx, idx);
  const u64 index_bytes = std::filesystem::file_size(cofidx);
  const u64 load_ns = best_of(reps, [&] { (void)load_index(cofidx); });

  std::printf("genome: %llu bases, %zu chromosomes; %zu guides, chunk %llu, "
              "queues %llu\n",
              static_cast<unsigned long long>(bases), g.chroms.size(),
              cfg.queries.size(), static_cast<unsigned long long>(chunk),
              static_cast<unsigned long long>(queues));
  std::printf("index : %zu chunks, %llu candidate sites, %s on disk "
              "(build %.3fs, load %.3fms)\n\n",
              idx.chunks.size(),
              static_cast<unsigned long long>(idx.total_hits()),
              util::human_bytes(index_bytes).c_str(), 1e-9 * build_ns,
              1e-6 * load_ns);

  const std::vector<backend_kind> facades = {
      backend_kind::opencl, backend_kind::sycl, backend_kind::sycl_usm,
      backend_kind::sycl_twobit};
  struct facade_result {
    u64 cold_ns = 0;
    u64 warm_ns = 0;
    u64 records = 0;
    u64 chunk_hits = 0;
    bool identical = false;
  };
  std::vector<facade_result> fr;
  std::vector<ot_record> reference;  // first facade's records
  double min_speedup = 1e300;
  bool identical = true;
  for (const auto backend : facades) {
    opt.backend = backend;
    // The 2-bit facade serves with opt6 (its nibble kernel re-decodes packed
    // bases per compare); the char-resident facades keep the base kernel
    // this bench was first recorded with. Cold and warm share the variant,
    // so each ratio stays honest.
    opt.variant = backend == backend_kind::sycl_twobit ? comparer_variant::opt6
                                                       : comparer_variant::base;
    facade_result r;
    std::vector<ot_record> cold_records;
    r.cold_ns = best_of(reps, [&] {
      auto out = run_search_streaming(cfg, fasta, opt);
      cold_records = std::move(out.records);
    });
    // The serving shape: index resident, session kept open across queries.
    index_query_session session(idx, opt);
    std::vector<ot_record> warm_records;
    r.warm_ns = best_of(reps, [&] {
      warm_records = session.query(cfg.queries).records;
    });
    r.chunk_hits = session.chunk_hits();
    r.records = warm_records.size();
    r.identical = warm_records == cold_records &&
                  (reference.empty() || warm_records == reference);
    if (reference.empty()) reference = std::move(warm_records);
    identical = identical && r.identical;
    const double speedup =
        static_cast<double>(r.cold_ns) / static_cast<double>(r.warm_ns);
    if (speedup < min_speedup) min_speedup = speedup;
    std::printf("%-12s: cold %10llu ns  warm %10llu ns  %6.2fx  "
                "%llu records  %s\n",
                backend_name(backend),
                static_cast<unsigned long long>(r.cold_ns),
                static_cast<unsigned long long>(r.warm_ns), speedup,
                static_cast<unsigned long long>(r.records),
                r.identical ? "identical" : "DIVERGED");
    fr.push_back(r);
  }
  std::printf("\nwarm-vs-cold speedup at %zu guides: %.2fx minimum across "
              "facades (bar: 5x)  results %s\n",
              cfg.queries.size(), min_speedup,
              identical ? "identical" : "DIVERGED");

  // Coalescing sweep (SYCL facade, opt6, whose comparer covers every guide
  // of a query() call in one launch per chunk): one batched query() call vs
  // one query() call per guide.
  opt.backend = backend_kind::sycl;
  opt.variant = comparer_variant::opt6;
  struct sweep_point {
    usize guides;
    u64 coalesced_ns;
    u64 separate_ns;
  };
  std::vector<sweep_point> sweep;
  std::printf("\ncoalescing sweep (SYCL, warm):\n");
  for (const usize n : {usize{1}, usize{4}, usize{16}}) {
    const auto qs = make_queries(g, n);
    index_query_session session(idx, opt);
    const u64 coalesced =
        best_of(reps, [&] { (void)session.query(qs); });
    const u64 separate = best_of(reps, [&] {
      for (const auto& q : qs) (void)session.query({q});
    });
    std::printf("  guides=%-2zu: coalesced %10llu ns  per-guide %10llu ns  "
                "(%0.2fx fewer launch rounds' worth)\n",
                n, static_cast<unsigned long long>(coalesced),
                static_cast<unsigned long long>(separate),
                static_cast<double>(separate) / static_cast<double>(coalesced));
    sweep.push_back({n, coalesced, separate});
  }

  std::filesystem::remove(fasta);
  std::filesystem::remove(cofidx);

  const std::string out = cli.get("out");
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"index_query\",\n  \"scale\": %llu,\n"
               "  \"genome_bases\": %llu,\n  \"chunk\": %llu,\n"
               "  \"queues\": %llu,\n  \"guides\": %zu,\n  \"reps\": %llu,\n",
               static_cast<unsigned long long>(scale),
               static_cast<unsigned long long>(bases),
               static_cast<unsigned long long>(chunk),
               static_cast<unsigned long long>(queues), cfg.queries.size(),
               static_cast<unsigned long long>(reps));
  std::fprintf(f,
               "  \"index\": {\"chunks\": %zu, \"hits\": %llu, "
               "\"bytes\": %llu, \"build_ns\": %llu, \"load_ns\": %llu},\n",
               idx.chunks.size(),
               static_cast<unsigned long long>(idx.total_hits()),
               static_cast<unsigned long long>(index_bytes),
               static_cast<unsigned long long>(build_ns),
               static_cast<unsigned long long>(load_ns));
  std::fprintf(f, "  \"facades\": [\n");
  for (usize i = 0; i < fr.size(); ++i) {
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"cold_ns\": %llu, "
                 "\"warm_ns\": %llu, \"speedup\": %.3f, \"records\": %llu, "
                 "\"chunk_hits\": %llu, \"identical\": %s}%s\n",
                 backend_name(facades[i]),
                 static_cast<unsigned long long>(fr[i].cold_ns),
                 static_cast<unsigned long long>(fr[i].warm_ns),
                 static_cast<double>(fr[i].cold_ns) /
                     static_cast<double>(fr[i].warm_ns),
                 static_cast<unsigned long long>(fr[i].records),
                 static_cast<unsigned long long>(fr[i].chunk_hits),
                 fr[i].identical ? "true" : "false",
                 i + 1 < fr.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"coalescing\": [\n");
  for (usize i = 0; i < sweep.size(); ++i) {
    std::fprintf(f,
                 "    {\"guides\": %zu, \"coalesced_ns\": %llu, "
                 "\"separate_ns\": %llu}%s\n",
                 sweep[i].guides,
                 static_cast<unsigned long long>(sweep[i].coalesced_ns),
                 static_cast<unsigned long long>(sweep[i].separate_ns),
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"min_speedup\": %.3f,\n  \"identical\": %s\n}\n",
               min_speedup, identical ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", out.c_str());
  return identical ? 0 : 2;
}
