// Integration tests of the two device pipelines (host programs) against
// each other and the serial reference, across seeds, thresholds, work-group
// sizes, variants and chunk geometries.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/kernels_swar.hpp"
#include "genome/chunker.hpp"
#include "genome/synth.hpp"
#include "oclsim/cl_objects.hpp"

namespace {

using namespace cof;

genome::genome_t small_genome(util::u64 seed, util::usize len = 60000) {
  genome::synth_params p;
  p.assembly = "pipe-test";
  p.chromosomes = {{"chrA", len}, {"chrB", len / 2}};
  p.seed = seed;
  return genome::generate(p);
}

search_config small_config() {
  return parse_input(example_input("synth:unused"));
}

TEST(Pipelines, OclSyclSerialAgree) {
  auto g = small_genome(1);
  auto cfg = small_config();
  auto rs = run_search(cfg, g, {.backend = backend_kind::serial});
  auto ro = run_search(cfg, g, {.backend = backend_kind::opencl, .max_chunk = 16384});
  auto ry = run_search(cfg, g, {.backend = backend_kind::sycl, .max_chunk = 16384});
  EXPECT_EQ(rs.records, ro.records);
  EXPECT_EQ(rs.records, ry.records);
}

class PipelineSweep
    : public ::testing::TestWithParam<std::tuple<int, int, util::usize>> {};

TEST_P(PipelineSweep, BackendsAgreeAcrossGeometries) {
  const auto [seed, wg, chunk] = GetParam();
  auto g = small_genome(static_cast<util::u64>(seed), 30000);
  auto cfg = small_config();
  engine_options ser{.backend = backend_kind::serial};
  engine_options ocl{.backend = backend_kind::opencl,
                     .wg_size = static_cast<util::usize>(wg),
                     .max_chunk = chunk};
  engine_options syc{.backend = backend_kind::sycl,
                     .wg_size = static_cast<util::usize>(wg),
                     .max_chunk = chunk};
  auto rs = run_search(cfg, g, ser);
  auto ro = run_search(cfg, g, ocl);
  auto ry = run_search(cfg, g, syc);
  EXPECT_EQ(rs.records, ro.records);
  EXPECT_EQ(rs.records, ry.records);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSweep,
    ::testing::Values(std::tuple{2, 0, 8192u}, std::tuple{3, 64, 4096u},
                      std::tuple{4, 256, 50000u}, std::tuple{5, 32, 1000u},
                      std::tuple{6, 128, 65536u}));

class VariantSweep : public ::testing::TestWithParam<int> {};

TEST_P(VariantSweep, AllComparerVariantsMatchSerial) {
  const auto v = static_cast<comparer_variant>(GetParam());
  auto g = small_genome(7, 25000);
  auto cfg = small_config();
  auto rs = run_search(cfg, g, {.backend = backend_kind::serial});
  for (auto backend : {backend_kind::opencl, backend_kind::sycl}) {
    engine_options opt{.backend = backend, .variant = v, .max_chunk = 9000};
    auto r = run_search(cfg, g, opt);
    EXPECT_EQ(r.records, rs.records)
        << backend_name(backend) << "/" << comparer_variant_name(v);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantSweep,
                         ::testing::Range(0, kNumComparerVariants));

TEST(Pipelines, SiteStraddlingChunkBoundaryIsFound) {
  // Place a guaranteed hit exactly across a chunk boundary and search with a
  // chunk size that splits it.
  genome::genome_t g;
  g.chroms.push_back({"chr", std::string(3000, 'T')});
  const std::string site = "GGCCGACCTGTCGCTGACGCTGG";  // query0 + TGG PAM
  const util::usize chunk_size = 1000;
  const util::usize pos = chunk_size - 10;  // straddles the first boundary
  g.chroms[0].seq.replace(pos, site.size(), site);
  auto cfg = small_config();
  for (auto backend : {backend_kind::opencl, backend_kind::sycl}) {
    engine_options opt{.backend = backend, .max_chunk = chunk_size};
    auto r = run_search(cfg, g, opt);
    bool found = false;
    for (const auto& rec : r.records) {
      if (rec.query_index == 0 && rec.position == pos && rec.direction == '+' &&
          rec.mismatches == 0) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << backend_name(backend);
  }
}

TEST(Pipelines, OverlapDoesNotDuplicateRecords) {
  genome::genome_t g;
  g.chroms.push_back({"chr", std::string(2000, 'T')});
  const std::string site = "GGCCGACCTGTCGCTGACGCTGG";
  g.chroms[0].seq.replace(500, site.size(), site);  // interior of chunk 1&2 overlap
  auto cfg = small_config();
  engine_options opt{.backend = backend_kind::sycl, .max_chunk = 512};
  auto r = run_search(cfg, g, opt);
  int hits = 0;
  for (const auto& rec : r.records) {
    hits += (rec.query_index == 0 && rec.position == 500 && rec.direction == '+');
  }
  EXPECT_EQ(hits, 1);
}

TEST(Pipelines, ChunkSmallerThanPatternYieldsNothing) {
  genome::genome_t g;
  g.chroms.push_back({"tiny", "ACGTACGTAC"});  // 10 < plen 23
  auto cfg = small_config();
  for (auto backend : {backend_kind::opencl, backend_kind::sycl}) {
    auto r = run_search(cfg, g, {.backend = backend});
    EXPECT_TRUE(r.records.empty());
  }
}

TEST(Pipelines, MetricsAccumulate) {
  auto g = small_genome(8, 20000);
  auto cfg = small_config();
  engine_options opt{.backend = backend_kind::sycl, .max_chunk = 8192};
  auto r = run_search(cfg, g, opt);
  EXPECT_GT(r.metrics.chunks, 1u);
  EXPECT_EQ(r.metrics.pipeline.finder_launches, r.metrics.chunks);
  // opt6 uploads each chunk as its packed words: their payload + patterns.
  const auto chunks = genome::make_chunks(g, opt.max_chunk, cfg.pattern.size() - 1);
  ASSERT_EQ(chunks.size(), r.metrics.chunks);
  usize words = 0;
  for (const auto& c : chunks) words += swar_ref_bytes(c.length);
  EXPECT_GT(r.metrics.pipeline.h2d_bytes, words);
  EXPECT_GT(r.metrics.pipeline.kernel_nanos, 0u);
  EXPECT_GT(r.metrics.elapsed_seconds, 0.0);
  // one comparer launch per non-empty chunk per query
  EXPECT_LE(r.metrics.pipeline.comparer_launches,
            r.metrics.chunks * cfg.queries.size());
}

TEST(Pipelines, CountingModeMatchesDirectResults) {
  auto g = small_genome(9, 20000);
  auto cfg = small_config();
  prof::profiler prof;
  engine_options direct{.backend = backend_kind::sycl,
                        .variant = comparer_variant::base,
                        .max_chunk = 8192};
  engine_options counting{.backend = backend_kind::sycl,
                          .variant = comparer_variant::base,
                          .max_chunk = 8192,
                          .counting = true,
                          .profiler = &prof};
  auto rd = run_search(cfg, g, direct);
  auto rc = run_search(cfg, g, counting);
  EXPECT_EQ(rd.records, rc.records);
  EXPECT_GT(prof.get("finder").events[prof::ev::work_item], 0u);
  EXPECT_GT(prof.get("comparer/base").events[prof::ev::global_load], 0u);
}

TEST(Pipelines, OclCountingAlsoRecords) {
  auto g = small_genome(10, 15000);
  auto cfg = small_config();
  prof::profiler prof;
  engine_options opt{.backend = backend_kind::opencl,
                     .variant = comparer_variant::base,
                     .max_chunk = 8192,
                     .counting = true,
                     .profiler = &prof};
  auto r = run_search(cfg, g, opt);
  EXPECT_GT(prof.get("comparer/base").events[prof::ev::work_item], 0u);
  EXPECT_GT(prof.get("comparer/base").launches, 0u);
}

/// An overflowing launch must not leak its own buffers: once the pipeline
/// is destroyed, the OpenCL object census is back where it started. The
/// entry.clamp fault forces the overflow at the finder (its first capacity
/// check), or at the comparer (the second): base's first per-query launch,
/// opt6's batched fetch.
TEST(Pipelines, OclOverflowLeaksNoLaunchBuffers) {
  auto g = small_genome(11, 20000);
  auto cfg = small_config();
  const device_pattern pat = make_pattern(cfg.pattern);
  std::vector<device_pattern> queries;
  std::vector<u16> thresholds;
  for (const auto& q : cfg.queries) {
    queries.push_back(make_query(q.seq));
    thresholds.push_back(q.max_mismatches);
  }
  const std::string_view chunk(g.chroms[0].seq);
  (void)make_opencl_pipeline({});  // any lazily built runtime state
  for (const auto variant : {comparer_variant::base, comparer_variant::opt6}) {
    for (const char* plan : {"entry.clamp=hit:1", "entry.clamp=hit:2"}) {
      const long before = oclsim::census::live().load();
      {
        fault::scope faults(plan);
        auto pipe = make_opencl_pipeline({.variant = variant});
        pipe->load_chunk(chunk);
        EXPECT_THROW(
            {
              (void)pipe->run_finder(pat);
              (void)pipe->run_comparers(queries, thresholds);
            },
            entry_overflow_error)
            << plan;
      }
      EXPECT_EQ(oclsim::census::live().load(), before)
          << plan << " overflow on " << comparer_variant_name(variant);
    }
  }
}

/// The accounting device_pipeline owns is the same on every facade: one
/// chunk and one query set, cold and warm, on all four facades and every
/// variant. The finder and entry counts, the launches and the downloads
/// always agree: every facade runs the variant's one comparer (per-query
/// launches under base..opt4, the batched kernel under opt6).
TEST(Pipelines, FacadesAgreeOnAccounting) {
  auto g = small_genome(21, 20000);
  auto cfg = small_config();
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 8, 2, 22);
  const device_pattern pat = make_pattern(cfg.pattern);
  std::vector<device_pattern> queries;
  std::vector<u16> thresholds;
  for (const auto& q : cfg.queries) {
    queries.push_back(make_query(q.seq));
    thresholds.push_back(q.max_mismatches);
  }
  const std::string_view chunk(g.chroms[0].seq);
  using maker = std::unique_ptr<device_pipeline> (*)(const pipeline_options&);
  const maker facades[] = {make_opencl_pipeline, make_sycl_pipeline,
                           make_sycl_usm_pipeline, make_sycl_twobit_pipeline};
  for (int v = 0; v < kNumComparerVariants; ++v) {
    const pipeline_options po{.variant = static_cast<comparer_variant>(v)};
    std::vector<u32> loci;
    std::vector<char> flags;
    {
      auto pipe = make_sycl_pipeline(po);
      pipe->load_chunk(chunk);
      ASSERT_GT(pipe->run_finder(pat), 0u);
      loci = pipe->read_loci();
      flags = pipe->read_flags();
    }
    for (const char* mode : {"cold", "warm"}) {
      std::vector<pipeline_metrics> ms;
      for (const maker make : facades) {
        auto pipe = make(po);
        if (std::string_view(mode) == "warm") {
          pipe->load_indexed_chunk(chunk, pat.plen, loci, flags);
        } else {
          pipe->load_chunk(chunk);
          (void)pipe->run_finder(pat);
        }
        const auto e = pipe->run_comparers(queries, thresholds);
        EXPECT_EQ(e.size(), pipe->metrics().total_entries);
        ms.push_back(pipe->metrics());
      }
      const std::string where =
          std::string(mode) + " " + comparer_variant_name(po.variant);
      EXPECT_GT(ms[0].total_entries, 0u) << where;
      EXPECT_EQ(ms[0].comparer_launches,
                po.variant == comparer_variant::opt6 ? 1u : queries.size())
          << where;
      for (usize f = 1; f < ms.size(); ++f) {
        EXPECT_EQ(ms[f].finder_launches, ms[0].finder_launches) << where << " " << f;
        EXPECT_EQ(ms[f].total_loci, ms[0].total_loci) << where << " " << f;
        EXPECT_EQ(ms[f].total_entries, ms[0].total_entries) << where << " " << f;
        EXPECT_EQ(ms[f].comparer_launches, ms[0].comparer_launches) << where << " " << f;
        EXPECT_EQ(ms[f].d2h_bytes, ms[0].d2h_bytes) << where << " " << f;
        // Under opt6 every facade uploads the same words and constants.
        if (po.variant == comparer_variant::opt6) {
          EXPECT_EQ(ms[f].h2d_bytes, ms[0].h2d_bytes) << where << " " << f;
        }
      }
    }
  }
}

TEST(Pipelines, PlantedRecallAllMismatchLevels) {
  auto g = small_genome(11, 80000);
  auto cfg = small_config();
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  std::vector<genome::planted_site> all;
  for (unsigned mm = 0; mm <= 5; ++mm) {
    auto planted = genome::plant_sites(g, guide, cfg.pattern, 3, mm, 200 + mm);
    all.insert(all.end(), planted.begin(), planted.end());
  }
  auto r = run_search(cfg, g, {.backend = backend_kind::sycl, .max_chunk = 16384});
  for (const auto& p : all) {
    bool found = false;
    for (const auto& rec : r.records) {
      if (rec.query_index == 0 && rec.chrom_index == p.chrom_index &&
          rec.position == p.position && rec.direction == p.strand &&
          rec.mismatches == p.mismatches) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "planted mm=" << p.mismatches << " at " << p.position;
  }
}

}  // namespace
