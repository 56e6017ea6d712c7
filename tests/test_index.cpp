// Index/query split suite: .cofidx round-trip (build → persist → load →
// query) property tests on synth genomes, byte-equal files from repeated
// builds, warm-vs-cold byte-identity across every backend and queue count,
// zero-decode/zero-finder warm-path assertions via the obs counters, device
// upload-once semantics, and corrupt-index hardening (truncation, bad magic,
// checksum mismatch, version skew, hostile run tables, counts and flags, a
// seeded byte-flip loop — clean site-named errors, never UB reads).
#include <gtest/gtest.h>

#include "gtest_compat.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/engine.hpp"
#include "core/engine_stream.hpp"
#include "core/index.hpp"
#include "genome/fasta.hpp"
#include "genome/synth.hpp"
#include "genome/twobit_file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/common.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;

struct temp_dir {
  fs::path path;
  temp_dir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cof_index_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~temp_dir() { fs::remove_all(path); }
};

genome::genome_t index_genome(util::u64 seed) {
  genome::synth_params p;
  p.assembly = "index-test";
  p.chromosomes = {{"chrA", 40000}, {"chrB", 15000}};
  p.seed = seed;
  return genome::generate(p);
}

struct stream_case {
  cof::search_config cfg;
  std::string file;
};

/// Synth genome (leading telomere N runs exercise the run table) with
/// planted off-target sites, written to FASTA — every run has records.
stream_case make_case(const temp_dir& dir, util::u64 seed, util::usize planted) {
  stream_case c;
  auto g = index_genome(seed);
  c.cfg = cof::parse_input(cof::example_input("<file>"));
  const std::string guide = c.cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, c.cfg.pattern, planted, 2, seed + 1);
  c.file = (dir.path / "g.fa").string();
  c.cfg.genome_path = c.file;
  genome::write_fasta_file(c.file, g.chroms);
  return c;
}

/// A warm run as the CLI's --index makes one: resolve_index, then the
/// queries through an index_query_session, inside one run_scope that arms
/// opt.faults and opt's obs files across both.
struct warm_run {
  cof::resolved_index resolved;
  cof::search_outcome outcome;
};
warm_run run_warm(const cof::search_config& cfg, const std::string& path,
                  const cof::engine_options& opt) {
  cof::run_scope run(opt);
  warm_run w;
  w.resolved = cof::resolve_index(path, cfg, opt);
  cof::index_query_session session(w.resolved.index, opt);
  w.outcome = session.query(cfg.queries);
  run.finish();
  return w;
}

bool index_equal(const cof::genome_index& a, const cof::genome_index& b) {
  if (a.pattern != b.pattern || a.max_chunk != b.max_chunk ||
      a.source_bases != b.source_bases || a.content_hash != b.content_hash ||
      a.chrom_names != b.chrom_names || a.chunks.size() != b.chunks.size()) {
    return false;
  }
  for (util::usize i = 0; i < a.chunks.size(); ++i) {
    const auto& x = a.chunks[i];
    const auto& y = b.chunks[i];
    if (x.chrom_index != y.chrom_index || x.start != y.start ||
        x.text != y.text || x.loci != y.loci || x.flags != y.flags ||
        x.words.bases != y.words.bases || x.words.packed2 != y.words.packed2 ||
        x.words.amb2 != y.words.amb2) {
      return false;
    }
  }
  return true;
}

// --- round-trip property -----------------------------------------------------

/// build → persist → load must be lossless for every field — including the
/// byte-exact chunk text, whose non-ACGT bases ride the run table.
TEST(IndexRoundTrip, PersistLoadIsLossless) {
  temp_dir dir;
  for (const util::u64 seed : {201u, 202u, 203u}) {
    const auto c = make_case(dir, seed, 6);
    const genome::genome_t g = genome::load_genome(c.file);
    cof::engine_options opt{.backend = cof::backend_kind::sycl,
                            .max_chunk = 9000};
    const auto built = cof::build_index(g, c.cfg.pattern, opt);
    ASSERT_GT(built.total_hits(), 0u) << "seed " << seed;
    // The synth telomeres guarantee non-ACGT text, so the run table is
    // actually exercised.
    bool has_n = false;
    for (const auto& ch : built.chunks) {
      has_n = has_n || ch.text.find('N') != std::string::npos;
    }
    EXPECT_TRUE(has_n) << "seed " << seed;

    const std::string path = (dir.path / "rt.cofidx").string();
    cof::save_index(path, built);
    const auto resolved = cof::resolve_index(path, c.cfg, opt);
    ASSERT_TRUE(resolved.cache_hit) << "seed " << seed;
    const auto& loaded = resolved.index;
    EXPECT_TRUE(index_equal(built, loaded)) << "seed " << seed;
    // The words come straight from the payload, yet equal a fresh pack.
    // build_index sorts each chunk's hits.
    for (const auto& ch : loaded.chunks) {
      const cof::swar_ref packed = cof::swar_pack(ch.text);
      EXPECT_EQ(ch.words.packed2, packed.packed2) << "seed " << seed;
      EXPECT_EQ(ch.words.amb2, packed.amb2) << "seed " << seed;
      EXPECT_TRUE(std::is_sorted(ch.loci.begin(), ch.loci.end())) << "seed " << seed;
    }
  }
}

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

/// One genome and pattern always write the same file. The finder appends
/// hits in atomic order, which changes between runs and queue counts (on
/// this genome about half the builds hold a chunk whose hits come back out
/// of order), and build_index sorts each chunk's hits with their flags:
/// builds at one and three queues, three times each, hold sorted hits and
/// save byte-equal files. Each chunk's finder launch spans many work-groups.
TEST(IndexBuild, RepeatedBuildsWriteEqualFiles) {
  temp_dir dir;
  const genome::genome_t g = genome::generate(genome::hg19_like(1024, 3));
  const std::string pattern = "NNNNNNNNNNNNNNNNNNNNNRG";
  std::vector<std::string> files;
  for (const util::usize queues : {1u, 3u, 1u, 3u, 1u, 3u}) {
    const cof::engine_options opt{.backend = cof::backend_kind::sycl, .num_queues = queues};
    const cof::genome_index idx = cof::build_index(g, pattern, opt);
    for (const auto& ch : idx.chunks) {
      EXPECT_TRUE(std::is_sorted(ch.loci.begin(), ch.loci.end())) << "queues " << queues;
    }
    const std::string path = (dir.path / (std::to_string(files.size()) + ".cofidx")).string();
    cof::save_index(path, idx);
    files.push_back(read_bytes(path));
  }
  ASSERT_GT(files[0].size(), 0u);
  for (util::usize i = 1; i < files.size(); ++i) {
    EXPECT_TRUE(files[i] == files[0]) << "build " << i << " wrote another file";
  }
}

/// The full serving loop: a loaded index answers queries identically to the
/// just-built one and to a cold full run.
TEST(IndexRoundTrip, LoadedIndexAnswersIdenticallyToColdRun) {
  temp_dir dir;
  const auto c = make_case(dir, 204, 6);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto cold = cof::run_search_streaming(c.cfg, c.file, opt);
  ASSERT_FALSE(cold.records.empty());

  const genome::genome_t g = genome::load_genome(c.file);
  const auto built = cof::build_index(g, c.cfg.pattern, opt);
  const std::string path = (dir.path / "rt.cofidx").string();
  cof::save_index(path, built);
  const auto loaded = cof::resolve_index(path, c.cfg, opt).index;

  const auto from_built = cof::run_query(built, c.cfg.queries, opt);
  const auto from_loaded = cof::run_query(loaded, c.cfg.queries, opt);
  EXPECT_EQ(from_built.records, cold.records);
  EXPECT_EQ(from_loaded.records, cold.records);
}

// --- warm-vs-cold byte-identity ----------------------------------------------

/// 4 backends × {1,2,4} queues: the warm index path (in-memory and via
/// .cofidx) must be byte-identical to the classic cold streaming run.
TEST(IndexQuery, WarmMatchesColdOnEveryBackendAndQueueCount) {
  temp_dir dir;
  const auto c = make_case(dir, 205, 8);
  const std::string path = (dir.path / "g.cofidx").string();

  // One index serves every backend: finder hits depend only on
  // (genome, PAM), not on the host programming model.
  {
    const genome::genome_t g = genome::load_genome(c.file);
    cof::engine_options bopt{.backend = cof::backend_kind::sycl,
                             .max_chunk = 9000};
    cof::save_index(path, cof::build_index(g, c.cfg.pattern, bopt));
  }

  for (const auto backend :
       {cof::backend_kind::opencl, cof::backend_kind::sycl,
        cof::backend_kind::sycl_usm, cof::backend_kind::sycl_twobit}) {
    cof::engine_options opt{.backend = backend, .max_chunk = 9000};
    const auto cold = cof::run_search_streaming(c.cfg, c.file, opt);
    ASSERT_FALSE(cold.records.empty()) << cof::backend_name(backend);
    for (const util::usize queues : {1u, 2u, 4u}) {
      opt.num_queues = queues;
      const auto warm = run_warm(c.cfg, path, opt);
      EXPECT_EQ(warm.outcome.records, cold.records)
          << cof::backend_name(backend) << " queues=" << queues;
      // Answered from the index: comparer launches only.
      EXPECT_EQ(warm.outcome.metrics.pipeline.finder_launches, 0u);
      EXPECT_TRUE(warm.resolved.cache_hit);
    }
  }
}

/// The batched multi-query coalescing must not change results: 1 guide at a
/// time vs all guides in one query() call agree (per-chunk comparer_multi
/// launch covers every guide).
TEST(IndexQuery, CoalescedGuidesMatchPerGuideQueries) {
  temp_dir dir;
  const auto c = make_case(dir, 206, 6);
  const genome::genome_t g = genome::load_genome(c.file);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto idx = cof::build_index(g, c.cfg.pattern, opt);

  cof::index_query_session session(idx, opt);
  const auto coalesced = session.query(c.cfg.queries);
  std::vector<cof::ot_record> separate;
  for (util::usize qi = 0; qi < c.cfg.queries.size(); ++qi) {
    auto one = session.query({c.cfg.queries[qi]});
    for (auto& r : one.records) {
      r.query_index = static_cast<util::u32>(qi);  // restore the batch index
      separate.push_back(std::move(r));
    }
  }
  cof::sort_and_dedup(separate);
  EXPECT_EQ(coalesced.records, separate);
}

// --- zero-decode / zero-finder warm path -------------------------------------

/// Acceptance: warm queries do ZERO FASTA decode and ZERO finder launches,
/// asserted via the obs counters and the pipeline metrics.
TEST(IndexQuery, WarmPathDoesZeroDecodeAndZeroFinderLaunches) {
  temp_dir dir;
  const auto c = make_case(dir, 207, 6);
  const std::string path = (dir.path / "g.cofidx").string();
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};

  // First warm run on an empty cache path: builds + persists (cache miss).
  opt.metrics_json = (dir.path / "cold.json").string();  // enables obs
  const auto cold = run_warm(c.cfg, path, opt);
  ASSERT_FALSE(cold.outcome.records.empty());
  EXPECT_EQ(cold.outcome.metrics.pipeline.finder_launches, 0u);  // from the index
  EXPECT_FALSE(cold.resolved.cache_hit);
  // The build decoded the genome once.
  EXPECT_EQ(cold.resolved.index.source_bases, genome::load_genome(c.file).total_bases());
  EXPECT_EQ(obs::metrics_registry::global().counter("index.cache.miss").value(),
            1u);

  // Warm run: loads the cache — no decode, no finder.
  opt.metrics_json = (dir.path / "warm.json").string();
  const auto warm = run_warm(c.cfg, path, opt);
  auto& reg = obs::metrics_registry::global();
  EXPECT_EQ(warm.outcome.records, cold.outcome.records);
  EXPECT_TRUE(warm.resolved.cache_hit);                    // a hit builds nothing
  EXPECT_EQ(reg.counter("stream.chunks").value(), 0u);     // zero chunk decode
  EXPECT_EQ(warm.outcome.metrics.pipeline.finder_launches, 0u);    // zero finder
  EXPECT_GT(warm.outcome.metrics.pipeline.comparer_launches, 0u);  // comparer only
  EXPECT_GT(warm.outcome.metrics.elapsed_seconds, 0.0);   // the query phase
  EXPECT_GT(warm.resolved.seconds, 0.0);                  // the .cofidx load
  EXPECT_EQ(reg.counter("index.cache.hit").value(), 1u);
  EXPECT_GT(reg.counter("index.chunk.miss").value(), 0u);
  // A fresh session uploads each chunk with candidate sites exactly once.
  const auto& chunks = warm.resolved.index.chunks;
  EXPECT_EQ(static_cast<util::u64>(std::count_if(
                chunks.begin(), chunks.end(), [](const auto& ch) { return !ch.loci.empty(); })),
            reg.counter("index.chunk.miss").value());
}

/// run_query must reject guides whose length differs from the indexed
/// pattern with the same clean index_error the engine paths give — never a
/// wrong-plen slice.
/// Called directly, build_index checks its arguments as the engine does:
/// each hostile one throws config_error instead of aborting in make_chunks
/// or make_pattern.
TEST(IndexBuild, HostileArgumentsThrowConfigError) {
  genome::genome_t g;
  g.chroms.push_back({"chr1", std::string(60, 'T')});
  const std::string pam = "NNNNNNNNNNNNNNNNNNNNNRG";
  const cof::engine_options device{.backend = cof::backend_kind::sycl};
  for (const util::usize chunk : {util::usize{10}, pam.size() - 1}) {
    EXPECT_THROW((void)cof::build_index(g, pam, {.backend = cof::backend_kind::sycl,
                                                 .max_chunk = chunk}),
                 cof::config_error)
        << "chunk " << chunk;
  }
  EXPECT_THROW((void)cof::build_index(g, "", device), cof::config_error);
  EXPECT_THROW((void)cof::build_index(g, "NNNNNNNNNNNNNNNNNNNNNZG", device),
               cof::config_error);
  EXPECT_THROW((void)cof::build_index(g, pam, {.backend = cof::backend_kind::serial}),
               cof::config_error);
  // The smallest legal chunk still builds.
  const cof::engine_options smallest{.backend = cof::backend_kind::sycl,
                                     .max_chunk = pam.size()};
  EXPECT_EQ(cof::build_index(g, pam, smallest).max_chunk, pam.size());
}

/// A non-IUPAC guide and the serial backend are argument errors on the
/// standalone warm entry points too: config_error, never an abort.
TEST(IndexQuery, RunQueryRejectsNonIupacGuide) {
  temp_dir dir;
  const auto c = make_case(dir, 216, 4);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto idx = cof::build_index(genome::load_genome(c.file), c.cfg.pattern, opt);
  EXPECT_THROW((void)cof::run_query(idx, {{"GGCCGACCTGTCGCTGACGCNNZ", 3}}, opt),
               cof::config_error);
}

TEST(IndexQuery, SessionRejectsSerialBackend) {
  temp_dir dir;
  const auto c = make_case(dir, 217, 4);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto idx = cof::build_index(genome::load_genome(c.file), c.cfg.pattern, opt);
  EXPECT_THROW(cof::index_query_session(idx, {.backend = cof::backend_kind::serial}),
               cof::config_error);
}

TEST(IndexQuery, RunQueryRejectsWrongGuideLength) {
  temp_dir dir;
  const auto c = make_case(dir, 210, 4);
  const genome::genome_t g = genome::load_genome(c.file);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto idx = cof::build_index(g, c.cfg.pattern, opt);
  EXPECT_THROW((void)cof::run_query(idx, {{"ACGT", 2}}, opt), cof::index_error);
  cof::index_query_session session(idx, opt);
  EXPECT_THROW((void)session.query({{"ACGT", 2}}), cof::index_error);
}

/// An index built from genome X must never silently answer for genome Y —
/// even one with identical chromosome names and sizes (content hash).
/// resolve_index rejects it against a caller's genome and against a genome
/// line alike.
TEST(IndexQuery, MismatchedGenomeIsRejected) {
  temp_dir dir;
  const auto c = make_case(dir, 211, 4);
  const genome::genome_t g = genome::load_genome(c.file);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto idx = cof::build_index(g, c.cfg.pattern, opt);
  const std::string path = (dir.path / "g.cofidx").string();
  cof::save_index(path, idx);

  // Same names, same lengths, different seed: only the content differs.
  const genome::genome_t other = index_genome(212);
  ASSERT_EQ(other.total_bases(), g.total_bases());
  EXPECT_THROW((void)cof::resolve_index(path, c.cfg, opt, &other), cof::index_error);

  const std::string other_file = (dir.path / "other.fa").string();
  genome::write_fasta_file(other_file, other.chroms);
  cof::search_config other_cfg = c.cfg;
  other_cfg.genome_path = other_file;
  EXPECT_THROW((void)cof::resolve_index(path, other_cfg, opt), cof::index_error);

  // The matching genome still passes both ways.
  EXPECT_FALSE(cof::run_query(cof::resolve_index(path, c.cfg, opt, &g).index,
                              c.cfg.queries, opt)
                   .records.empty());
  EXPECT_FALSE(
      cof::run_query(cof::resolve_index(path, c.cfg, opt).index, c.cfg.queries, opt)
          .records.empty());
}

/// Identity holds for every genome line load_genome reads: a synth: URI
/// and a .2bit file are summarised from the loaded genome, so an index of
/// one never answers for another. Only a line naming nothing on disk skips
/// the check.
TEST(IndexQuery, ForeignIndexOnSynthAndTwoBitLinesIsRejected) {
  temp_dir dir;
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  cof::search_config cfg = cof::parse_input(cof::example_input("synth:hg19:16384:1"));
  const std::string synth_idx = (dir.path / "synth.cofidx").string();
  EXPECT_FALSE(cof::resolve_index(synth_idx, cfg, opt).cache_hit);
  EXPECT_TRUE(cof::resolve_index(synth_idx, cfg, opt).cache_hit);
  cfg.genome_path = "synth:hg19:16384:2";
  EXPECT_THROW((void)cof::resolve_index(synth_idx, cfg, opt), cof::index_error);

  const std::string a = (dir.path / "a.2bit").string();
  const std::string b = (dir.path / "b.2bit").string();
  genome::write_twobit_file(a, index_genome(218));
  genome::write_twobit_file(b, index_genome(219));
  const std::string twobit_idx = (dir.path / "a.cofidx").string();
  cfg.genome_path = a;
  EXPECT_FALSE(cof::resolve_index(twobit_idx, cfg, opt).cache_hit);
  EXPECT_TRUE(cof::resolve_index(twobit_idx, cfg, opt).cache_hit);
  cfg.genome_path = b;
  EXPECT_THROW((void)cof::resolve_index(twobit_idx, cfg, opt), cof::index_error);
  cfg.genome_path = (dir.path / "gone.2bit").string();
  EXPECT_TRUE(cof::resolve_index(twobit_idx, cfg, opt).cache_hit);
}

/// Outcome metrics are per-query() deltas, not the pipeline's cumulative
/// lifetime counters: in a long-lived session the second call must not
/// double-count the first one's launches and transfers.
TEST(IndexQuery, SessionMetricsArePerQueryCall) {
  temp_dir dir;
  const auto c = make_case(dir, 213, 4);
  const genome::genome_t g = genome::load_genome(c.file);
  // One chunk per chromosome, one slot each: chunks stay device-resident,
  // so the second call's h2d delta is query uploads only.
  cof::engine_options opt{.backend = cof::backend_kind::sycl,
                          .max_chunk = 1 << 20};
  opt.num_queues = 2;
  const auto idx = cof::build_index(g, c.cfg.pattern, opt);

  cof::index_query_session session(idx, opt);
  const auto first = session.query(c.cfg.queries);
  ASSERT_GT(first.metrics.pipeline.comparer_launches, 0u);
  const auto second = session.query(c.cfg.queries);
  EXPECT_EQ(second.metrics.pipeline.comparer_launches,
            first.metrics.pipeline.comparer_launches);
  // Resident chunks re-upload nothing, so the second call moves fewer
  // host-to-device bytes than the first (query uploads only).
  EXPECT_LT(second.metrics.pipeline.h2d_bytes,
            first.metrics.pipeline.h2d_bytes);
  EXPECT_EQ(second.metrics.per_queue.size(), first.metrics.per_queue.size());
}

/// Upload-once semantics: a slot that owns one chunk uploads it on the
/// first query and reuses the device-resident buffers on every later one.
TEST(IndexQuery, DeviceResidentChunksAreUploadedOnce) {
  temp_dir dir;
  const auto c = make_case(dir, 208, 6);
  const genome::genome_t g = genome::load_genome(c.file);
  // max_chunk > chromosome size: one chunk per chromosome, one slot each.
  cof::engine_options opt{.backend = cof::backend_kind::sycl,
                          .max_chunk = 1 << 20};
  opt.num_queues = 2;
  const auto idx = cof::build_index(g, c.cfg.pattern, opt);
  ASSERT_EQ(idx.chunks.size(), 2u);

  cof::index_query_session session(idx, opt);
  const auto first = session.query(c.cfg.queries);
  EXPECT_EQ(session.chunk_misses(), 2u);
  EXPECT_EQ(session.chunk_hits(), 0u);
  const auto second = session.query(c.cfg.queries);
  EXPECT_EQ(session.chunk_misses(), 2u);  // no re-upload
  EXPECT_EQ(session.chunk_hits(), 2u);
  EXPECT_EQ(second.records, first.records);
  EXPECT_EQ(second.metrics.pipeline.finder_launches, 0u);
}

/// The residency budget charges what each chunk's pipeline uploads — the
/// chars, the packed words, or both, plus the prebuilt hits — so with an
/// unbounded budget the session's resident_bytes() equals the summed h2d
/// bytes of loading every chunk with hits into a fresh pipeline, on every
/// facade under base and opt6.
TEST(IndexQuery, ResidentBytesEqualPerChunkUploads) {
  temp_dir dir;
  const auto c = make_case(dir, 215, 6);
  const genome::genome_t g = genome::load_genome(c.file);
  cof::engine_options build;
  build.max_chunk = 9000;
  const auto idx = cof::build_index(g, c.cfg.pattern, build);
  const auto plen = static_cast<util::u32>(c.cfg.pattern.size());
  for (const auto backend :
       {cof::backend_kind::sycl, cof::backend_kind::opencl,
        cof::backend_kind::sycl_usm, cof::backend_kind::sycl_twobit}) {
    for (const auto variant : {cof::comparer_variant::base, cof::comparer_variant::opt6}) {
      cof::engine_options opt = build;
      opt.backend = backend;
      opt.variant = variant;
      opt.resident_bytes = 0;  // unbounded: every chunk with hits stays
      cof::index_query_session session(idx, opt);
      (void)session.query(c.cfg.queries);

      cof::pipeline_options po;
      po.variant = variant;
      util::usize uploads = 0;
      for (const auto& ch : idx.chunks) {
        if (ch.loci.empty()) continue;
        std::unique_ptr<cof::device_pipeline> pipe;
        switch (backend) {
          case cof::backend_kind::opencl: pipe = cof::make_opencl_pipeline(po); break;
          case cof::backend_kind::sycl_usm: pipe = cof::make_sycl_usm_pipeline(po); break;
          case cof::backend_kind::sycl_twobit:
            pipe = cof::make_sycl_twobit_pipeline(po);
            break;
          default: pipe = cof::make_sycl_pipeline(po); break;
        }
        pipe->load_indexed_chunk(ch.text, plen, ch.loci, ch.flags);
        uploads += pipe->metrics().h2d_bytes;
      }
      EXPECT_GT(uploads, 0u);
      EXPECT_EQ(session.resident_bytes(), uploads)
          << cof::backend_name(backend) << " " << cof::comparer_variant_name(variant);
    }
  }
}

/// An undersized max_entries cap on a warm query recovers with the engine's
/// bounded grow-retry policy (sticky per-slot capacity seeded by the true
/// demand) instead of failing the query — and with recovery disabled the
/// overflow surfaces as the typed error, exactly like the streaming path.
TEST(IndexQuery, WarmQueryRecoversFromUndersizedEntryCap) {
  temp_dir dir;
  const auto c = make_case(dir, 214, 8);
  const genome::genome_t g = genome::load_genome(c.file);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  opt.num_queues = 2;
  const auto idx = cof::build_index(g, c.cfg.pattern, opt);

  // Worst-case-sized reference records.
  cof::index_query_session reference(idx, opt);
  const auto expected = reference.query(c.cfg.queries).records;
  ASSERT_FALSE(expected.empty());

  cof::engine_options tight = opt;
  tight.max_entries = 1;  // guaranteed overflow on every populated chunk
  cof::index_query_session session(idx, tight);
  const auto out = session.query(c.cfg.queries);
  EXPECT_EQ(out.records, expected);
  EXPECT_GT(out.metrics.recovery.overflow_retries, 0u);
  EXPECT_GT(out.metrics.recovery.recovered_overflows, 0u);
  // The grown capacity is sticky: the repeat query overflows nothing.
  const auto repeat = session.query(c.cfg.queries);
  EXPECT_EQ(repeat.records, expected);
  EXPECT_EQ(repeat.metrics.recovery.overflow_retries, 0u);
}

/// index.chunk.hit/miss land in the metrics registry even when tracing is
/// off — a --metrics-json run without --trace-out must still show the
/// residency behaviour (they used to be gated on obs::enabled()).
TEST(IndexQuery, ResidencyCountersRecordWithoutTracing) {
  temp_dir dir;
  const auto c = make_case(dir, 215, 4);
  const genome::genome_t g = genome::load_genome(c.file);
  cof::engine_options opt{.backend = cof::backend_kind::sycl,
                          .max_chunk = 1 << 20};
  const auto idx = cof::build_index(g, c.cfg.pattern, opt);

  ASSERT_FALSE(obs::enabled());  // no run_scope here: tracing is off
  auto& reg = obs::metrics_registry::global();
  const util::u64 miss0 = reg.counter("index.chunk.miss").value();
  const util::u64 hit0 = reg.counter("index.chunk.hit").value();
  cof::index_query_session session(idx, opt);
  (void)session.query(c.cfg.queries);
  (void)session.query(c.cfg.queries);
  EXPECT_GT(reg.counter("index.chunk.miss").value(), miss0);
  EXPECT_GT(reg.counter("index.chunk.hit").value(), hit0);
}

// --- corrupt-index hardening -------------------------------------------------

util::u32 u32_at(const std::string& data, util::usize at) {
  util::u32 v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<util::u32>(static_cast<unsigned char>(data[at + i])) << (8 * i);
  }
  return v;
}

void put_le(std::string& data, util::usize at, util::u64 v, int bytes) {
  for (int i = 0; i < bytes; ++i) data[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

util::usize round8(util::usize n) { return (n + 7) / 8 * 8; }

/// Where the fields of a version-2 .cofidx sit (layout in core/index.hpp).
struct v2_layout {
  struct chunk {
    util::usize at = 0;  // the record: chrom_index, text_len, start, n_runs, n_loci
    util::u32 len = 0, nruns = 0, nloci = 0;
    util::usize spans = 0;  // (start u32, len u32) per run
    util::usize bytes = 0;  // one byte per run
    util::usize loci = 0;
    util::usize flags = 0;
  };
  util::usize nchunks_at = 0;
  util::usize payload_bytes_at = 0;
  util::usize checksum_at = 0;
  util::usize payload_at = 0;
  std::vector<chunk> chunks;
};

v2_layout parse_v2(const std::string& data, const cof::genome_index& idx) {
  v2_layout l;
  util::usize at = 4 + 4 + 4 + idx.pattern.size() + 8 + 8 + 8 + 4;
  for (const auto& name : idx.chrom_names) at += 4 + name.size();
  l.nchunks_at = at;
  l.payload_bytes_at = at + 4;
  l.checksum_at = at + 4 + 8;
  l.payload_at = round8(l.checksum_at + 8);
  at = l.payload_at;
  for (util::usize i = 0; i < idx.chunks.size(); ++i) {
    v2_layout::chunk c;
    c.at = at;
    c.len = u32_at(data, at + 4);
    c.nruns = u32_at(data, at + 16);
    c.nloci = u32_at(data, at + 20);
    c.spans = at + 24 + 8 * ((util::usize{c.len} + 31) / 32);
    c.bytes = c.spans + 8 * util::usize{c.nruns};
    c.loci = round8(c.bytes + c.nruns);
    c.flags = round8(c.loci + 4 * util::usize{c.nloci});
    at = round8(c.flags + c.nloci);
    l.chunks.push_back(c);
  }
  return l;
}

/// Writes the checksum of data's payload into its header, as save_index
/// computes it, so a crafted field meets the reader's own checks.
void restamp(std::string& data, const v2_layout& l) {
  util::word_hash h;
  h.feed(std::string_view(data).substr(l.payload_at));
  put_le(data, l.checksum_at, h.digest(), 8);
}

class CorruptIndex : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto c = make_case(dir_, 209, 4);
    genome::genome_t g = genome::load_genome(c.file);
    // Short IUPAC runs after chrA's telomere N run, so chunk 0 holds
    // several runs of different bytes.
    g.chroms[0].seq.replace(700, 9, "RRRNNYYYS");
    genome::write_fasta_file(c.file, g.chroms);
    cof::engine_options opt{.backend = cof::backend_kind::sycl,
                            .max_chunk = 9000};
    idx_ = cof::build_index(genome::load_genome(c.file), c.cfg.pattern, opt);
    path_ = (dir_.path / "g.cofidx").string();
    cof::save_index(path_, idx_);
    saved_ = read_file();
    cfg_ = c.cfg;
  }

  std::string read_file() const { return read_bytes(path_); }
  void write_file(const std::string& data) const {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f << data;
  }
  /// Loads path_ as a warm run does (resolve_index), or with the .cofidx
  /// reader alone.
  void expect_load_fails(const std::string& needle, bool reader_only = false) const {
    try {
      if (reader_only) {
        (void)cof::load_index(path_);
      } else {
        (void)cof::resolve_index(path_, cfg_, {.backend = cof::backend_kind::sycl,
                                               .max_chunk = 9000});
      }
      FAIL() << "expected index_error (" << needle << ")";
    } catch (const cof::index_error& e) {
      EXPECT_EQ(e.site(), std::string("index.load"));
      EXPECT_NE(std::string(e.what()).find("index.load"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }

  /// Rewrites the file as saved with `edit` applied to its bytes and the
  /// checksum re-stamped, then expects the load to fail naming `needle`.
  template <class Edit>
  void expect_crafted_fails(const std::string& needle, Edit edit) const {
    std::string data = saved_;
    const v2_layout l = parse_v2(data, idx_);
    edit(data, l);
    restamp(data, l);
    write_file(data);
    expect_load_fails(needle);
  }

  temp_dir dir_;
  cof::genome_index idx_;
  std::string path_;
  std::string saved_;  // the file save_index wrote
  cof::search_config cfg_;
};

TEST_F(CorruptIndex, TruncatedFileFailsClean) {
  const std::string data = read_file();
  // Every truncation point must fail clean — header, payload.
  for (const util::usize keep :
       {util::usize{3}, util::usize{17}, data.size() / 2, data.size() - 1}) {
    write_file(data.substr(0, keep));
    expect_load_fails("truncated");
  }
}

/// save_index stores only non-ACGT bytes as runs; a run of a plain base
/// would decode text that disagrees with the packed codes the warm path
/// uploads, so load_index rejects it.
TEST_F(CorruptIndex, PlainBaseRunFailsClean) {
  ASSERT_GE(parse_v2(saved_, idx_).chunks[0].nruns, 3u);
  for (const char b : {'A', 'C', 'G', 'T'}) {
    expect_crafted_fails("plain base", [&](std::string& data, const v2_layout& l) {
      data[l.chunks[0].bytes + 1] = b;
    });
  }
}

/// Runs must lie inside the chunk, hold at least one base, and come in
/// order without overlapping.
TEST_F(CorruptIndex, HostileRunTableFailsClean) {
  const v2_layout lay = parse_v2(saved_, idx_);
  const auto& c0 = lay.chunks[0];
  ASSERT_GE(c0.nruns, 3u);
  const util::u32 start0 = u32_at(saved_, c0.spans);
  const util::u32 len0 = u32_at(saved_, c0.spans + 4);
  const util::u32 start1 = u32_at(saved_, c0.spans + 8);
  // The last run ends one base past the chunk, or starts past it.
  const util::usize last = c0.spans + 8 * (c0.nruns - 1);
  expect_crafted_fails("run past chunk end", [&](std::string& data, const v2_layout&) {
    put_le(data, last + 4, c0.len - u32_at(data, last) + 1, 4);
  });
  expect_crafted_fails("run past chunk end", [&](std::string& data, const v2_layout&) {
    put_le(data, last, c0.len, 4);
  });
  expect_crafted_fails("run past chunk end", [&](std::string& data, const v2_layout&) {
    put_le(data, last + 4, 0xFFFFFFFFu, 4);
  });
  expect_crafted_fails("zero-length run", [&](std::string& data, const v2_layout&) {
    put_le(data, c0.spans + 4, 0, 4);
  });
  // Run 1 starts inside run 0; then runs 0 and 1 swap places.
  expect_crafted_fails("overlap", [&](std::string& data, const v2_layout&) {
    put_le(data, c0.spans + 8, start0 + len0 - 1, 4);
  });
  expect_crafted_fails("out of order", [&](std::string& data, const v2_layout&) {
    put_le(data, c0.spans, start1, 4);
    put_le(data, c0.spans + 8, start0, 4);
  });
}

/// A run or hit count larger than the chunk, a chromosome index past the
/// names, or a chunk count past what the payload can hold fails before any
/// array is read.
TEST_F(CorruptIndex, CountsPastTheChunkFailClean) {
  expect_crafted_fails("run count past chunk size", [](std::string& data, const v2_layout& l) {
    put_le(data, l.chunks[0].at + 16, l.chunks[0].len + 1, 4);
  });
  expect_crafted_fails("hit count past chunk size", [](std::string& data, const v2_layout& l) {
    put_le(data, l.chunks[1].at + 20, l.chunks[1].len + 1, 4);
  });
  expect_crafted_fails("hit count past chunk size", [](std::string& data, const v2_layout& l) {
    put_le(data, l.chunks[1].at + 20, 0xFFFFFFFFu, 4);
  });
  expect_crafted_fails("chunk chromosome out of range",
                       [&](std::string& data, const v2_layout& l) {
                         put_le(data, l.chunks[2].at, idx_.chrom_names.size(), 4);
                       });
  expect_crafted_fails("chunk count past payload size",
                       [](std::string& data, const v2_layout& l) {
                         put_le(data, l.nchunks_at, 0xFFFFFFFFu, 4);
                       });
}

/// Each hit's strand flag is 0 (both), 1 (forward) or 2 (reverse).
TEST_F(CorruptIndex, FlagOutsideItsRangeFailsClean) {
  util::usize ci = 0;
  while (ci < idx_.chunks.size() && idx_.chunks[ci].loci.empty()) ++ci;
  ASSERT_LT(ci, idx_.chunks.size()) << "need a chunk with finder hits";
  for (const int f : {3, 0x80, 0xFF}) {
    expect_crafted_fails("hit flag", [&](std::string& data, const v2_layout& l) {
      data[l.chunks[ci].flags + l.chunks[ci].nloci - 1] = static_cast<char>(f);
    });
  }
}

/// The payload is whole 8-byte words and holds the chunks and nothing more.
TEST_F(CorruptIndex, PayloadSizeFailsClean) {
  const auto grow = [](util::usize extra) {
    return [extra](std::string& data, const v2_layout& l) {
      data.append(extra, '\0');
      put_le(data, l.payload_bytes_at, data.size() - l.payload_at, 8);
    };
  };
  expect_crafted_fails("not a multiple of 8", grow(4));
  expect_crafted_fails("bytes past the last chunk", grow(8));
}

/// Bits the reader rebuilds rather than trusts: codes under a run and the
/// code bits past a chunk's last base. Set in the file, they load as
/// swar_pack packs the decoded text, the run bytes kept.
TEST_F(CorruptIndex, StrayCodeBitsLoadAsSwarPack) {
  std::string data = saved_;
  const v2_layout l = parse_v2(data, idx_);
  const auto& c0 = l.chunks[0];
  ASSERT_NE(c0.len % 32, 0u);
  const util::usize words = c0.at + 24;
  const util::usize last = words + 8 * (c0.len / 32);
  for (util::usize b = (c0.len % 32) / 4 + 1; b < 8; ++b) data[last + b] = '\xff';
  ASSERT_GT(u32_at(data, c0.spans + 4), 4u);
  const util::u32 run0 = u32_at(data, c0.spans);
  data[words + run0 / 4 + 1] = '\xff';  // four bases inside run 0
  restamp(data, l);
  write_file(data);
  const cof::genome_index idx = cof::load_index(path_);
  for (util::usize i = 0; i < idx.chunks.size(); ++i) {
    const auto& ch = idx.chunks[i];
    EXPECT_EQ(ch.text, idx_.chunks[i].text) << "chunk " << i;
    const cof::swar_ref packed = cof::swar_pack(ch.text);
    EXPECT_EQ(ch.words.packed2, packed.packed2) << "chunk " << i;
    EXPECT_EQ(ch.words.amb2, packed.amb2) << "chunk " << i;
  }
}

/// A version-1 file (the per-base exception-list layout) is refused by
/// number, never parsed as version 2.
TEST_F(CorruptIndex, VersionOneHeaderFailsClean) {
  std::string data = saved_;
  put_le(data, 4, 1, 4);
  write_file(data);
  expect_load_fails("unsupported index version 1");
}

/// Seeded byte flips, each file re-stamped with its checksum so the flips
/// meet the reader's own checks: half land in the header or in a chunk
/// record's counts, run table and flags, half anywhere. Every mutant throws
/// index_error, or loads into chunks whose words equal swar_pack(text),
/// whose every locus has a full pattern window and whose every flag is 0, 1
/// or 2, and then answers a query.
TEST_F(CorruptIndex, MutatedIndexThrowsOrLoadsConsistent) {
  const v2_layout lay = parse_v2(saved_, idx_);
  std::vector<util::usize> fields;
  for (util::usize at = 0; at < lay.payload_at; ++at) fields.push_back(at);
  for (const auto& c : lay.chunks) {
    for (util::usize at = c.at; at < c.at + 24; ++at) fields.push_back(at);
    for (util::usize at = c.spans; at < c.bytes + c.nruns; ++at) fields.push_back(at);
    for (util::usize k = 0; k < std::min<util::usize>(c.nloci, 8); ++k) {
      fields.push_back(c.loci + 4 * k + 1);
      fields.push_back(c.flags + k);
    }
  }
  const cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  util::rng rng(2026);
  util::usize threw = 0;
  util::usize loaded = 0;
  for (int i = 0; i < 300; ++i) {
    std::string data = saved_;
    for (util::u64 e = 1 + rng.next_below(3); e > 0; --e) {
      const util::usize at = rng.next_below(2) == 0 ? fields[rng.next_below(fields.size())]
                                                    : rng.next_below(data.size());
      data[at] = static_cast<char>(data[at] ^ (1 + rng.next_below(255)));
    }
    restamp(data, lay);
    write_file(data);
    try {
      const cof::genome_index idx = cof::load_index(path_);
      for (const auto& ch : idx.chunks) {
        const cof::swar_ref packed = cof::swar_pack(ch.text);
        ASSERT_EQ(ch.words.bases, ch.text.size()) << "mutant " << i;
        ASSERT_EQ(ch.words.packed2, packed.packed2) << "mutant " << i;
        ASSERT_EQ(ch.words.amb2, packed.amb2) << "mutant " << i;
        ASSERT_EQ(ch.flags.size(), ch.loci.size()) << "mutant " << i;
        for (util::usize k = 0; k < ch.loci.size(); ++k) {
          ASSERT_LE(ch.loci[k] + idx.pattern.size(), ch.text.size()) << "mutant " << i;
          ASSERT_LE(static_cast<unsigned char>(ch.flags[k]), 2u) << "mutant " << i;
        }
      }
      (void)cof::run_query(idx, cfg_.queries, opt);
      ++loaded;
    } catch (const cof::index_error& e) {
      EXPECT_EQ(e.site(), std::string("index.load")) << "mutant " << i;
      ++threw;
    }
  }
  // The loop reaches both outcomes.
  EXPECT_GT(threw, 0u);
  EXPECT_GT(loaded, 0u);
}

TEST_F(CorruptIndex, BadMagicFailsClean) {
  std::string data = read_file();
  data[0] = 'X';
  write_file(data);
  expect_load_fails("bad magic");
}

TEST_F(CorruptIndex, VersionSkewFailsClean) {
  std::string data = read_file();
  data[4] = 99;  // version field, little-endian low byte
  write_file(data);
  expect_load_fails("unsupported index version 99");
}

TEST_F(CorruptIndex, PayloadChecksumMismatchFailsClean) {
  std::string data = read_file();
  data.back() = static_cast<char>(data.back() ^ 0x40);  // flip a payload bit
  write_file(data);
  expect_load_fails("checksum mismatch");
}

/// A locus in (text_len - plen, text_len) passes a naive end-of-chunk check
/// but would make both the host site-string slice and the comparer kernels
/// read past the chunk text — load_index must reject any locus that leaves
/// less than a full pattern window.
TEST_F(CorruptIndex, LocusWithoutFullPatternWindowFailsClean) {
  auto hostile = idx_;
  util::usize ci = 0;
  while (ci < hostile.chunks.size() && hostile.chunks[ci].loci.empty()) ++ci;
  ASSERT_LT(ci, hostile.chunks.size()) << "need a chunk with finder hits";
  auto& ch = hostile.chunks[ci];
  ASSERT_GT(idx_.pattern.size(), 1u);

  ch.loci[0] = static_cast<util::u32>(ch.text.size() - 1);  // near-end
  cof::save_index(path_, hostile);
  expect_load_fails("hit locus");

  ch.loci[0] = static_cast<util::u32>(ch.text.size() + 5);  // past-end
  cof::save_index(path_, hostile);
  expect_load_fails("hit locus");
}

TEST_F(CorruptIndex, MissingFileFailsClean) {
  fs::remove(path_);
  // resolve_index builds on a missing path; the reader itself refuses it.
  expect_load_fails("cannot open", /*reader_only=*/true);
}

TEST_F(CorruptIndex, PatternMismatchIsRejected) {
  auto cfg = cfg_;
  cfg.pattern = "NNNNNNNNNNNNNNNNNNNNNGG";  // index was built for ...NRG
  EXPECT_THROW(cof::check_index_compatible(idx_, cfg), cof::index_error);
  cfg = cfg_;
  cfg.queries[0].seq = "ACGT";  // length != pattern length
  EXPECT_THROW(cof::check_index_compatible(idx_, cfg), cof::index_error);
}

/// The CLI surfaces a corrupt cache as a clean fatal report (util::die),
/// never UB: same conversion every front end applies.
TEST_F(CorruptIndex, CliStyleHandlingDiesWithSiteNamedReport) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  std::string data = read_file();
  data[0] = 'X';
  write_file(data);
  const std::string p = path_;
  const cof::search_config cfg = cfg_;
  EXPECT_DEATH(
      {
        try {
          (void)cof::resolve_index(p, cfg, {.backend = cof::backend_kind::sycl});
        } catch (const std::exception& e) {
          util::die(e.what());
        }
      },
      "index.load.*bad magic");
}

}  // namespace
