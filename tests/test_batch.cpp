// Batched multi-query comparer tests (opt6): identical results to the
// per-query launches of base..opt4, fewer launches, amortised loci/flag
// traffic.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "genome/synth.hpp"

namespace {

using namespace cof;

genome::genome_t batch_genome(util::u64 seed, util::usize len = 40000) {
  genome::synth_params p;
  p.assembly = "batch-test";
  p.chromosomes = {{"chrA", len}};
  p.seed = seed;
  return genome::generate(p);
}

TEST(BatchComparer, MatchesPerQueryResults) {
  auto g = batch_genome(81);
  auto cfg = parse_input(example_input("<mem>"));
  auto per_query = run_search(cfg, g,
                              {.backend = backend_kind::sycl,
                               .variant = comparer_variant::base,
                               .max_chunk = 16384});
  auto batched = run_search(cfg, g, {.backend = backend_kind::sycl, .max_chunk = 16384});
  EXPECT_EQ(batched.records, per_query.records);
}

TEST(BatchComparer, OneComparerLaunchPerChunk) {
  auto g = batch_genome(82);
  auto cfg = parse_input(example_input("<mem>"));
  ASSERT_EQ(cfg.queries.size(), 3u);
  auto per_query = run_search(cfg, g,
                              {.backend = backend_kind::sycl,
                               .variant = comparer_variant::base,
                               .max_chunk = 16384});
  auto batched = run_search(cfg, g, {.backend = backend_kind::sycl, .max_chunk = 16384});
  EXPECT_EQ(per_query.metrics.pipeline.comparer_launches,
            per_query.metrics.chunks * 3);
  EXPECT_EQ(batched.metrics.pipeline.comparer_launches, batched.metrics.chunks);
}

// One 3-guide opt6 launch against three one-guide launches over the same
// loci: the same word evaluations, with each locus's loci/flag and window
// words read once instead of three times.
TEST(BatchComparer, AmortisesLociFlagLoads) {
  auto g = batch_genome(83);
  auto cfg = parse_input(example_input("<mem>"));
  ASSERT_EQ(cfg.queries.size(), 3u);
  prof::profiler batched;
  (void)run_search(cfg, g,
                   {.backend = backend_kind::sycl,
                    .max_chunk = 16384,
                    .counting = true,
                    .profiler = &batched});
  prof::event_counts singles;
  for (const auto& q : cfg.queries) {
    search_config one = cfg;
    one.queries = {q};
    prof::profiler p;
    (void)run_search(one, g,
                     {.backend = backend_kind::sycl,
                      .max_chunk = 16384,
                      .counting = true,
                      .profiler = &p});
    singles += p.get("comparer/opt6").events;
  }
  const auto b = batched.get("comparer/opt6").events;
  // Same word evaluations...
  EXPECT_EQ(b[prof::ev::swar_op], singles[prof::ev::swar_op]);
  // ...with fewer global loads (loci/flag and the window once instead of
  // 3x), noting the batched kernel also reads every query's threshold.
  EXPECT_LT(b[prof::ev::global_load] + b[prof::ev::global_load_repeat],
            (singles[prof::ev::global_load] + singles[prof::ev::global_load_repeat]) *
                3 / 4);
  // ...and a third of the padded work-items.
  EXPECT_LT(b[prof::ev::work_item], singles[prof::ev::work_item]);
}

TEST(BatchComparer, NonSyclBackendsFallBackToPerQuery) {
  auto g = batch_genome(84, 20000);
  auto cfg = parse_input(example_input("<mem>"));
  for (auto backend : {backend_kind::opencl, backend_kind::sycl_usm,
                       backend_kind::sycl_twobit}) {
    auto r = run_search(cfg, g, {.backend = backend, .max_chunk = 8192});
    auto serial = run_search(cfg, g, {.backend = backend_kind::serial});
    EXPECT_EQ(r.records, serial.records) << backend_name(backend);
  }
}

TEST(BatchComparer, PlantedSitesAttributedToRightQuery) {
  auto g = batch_genome(85, 60000);
  auto cfg = parse_input(example_input("<mem>"));
  // Plant sites for query 1 specifically.
  const std::string guide = cfg.queries[1].seq.substr(0, 20) + "NGG";
  auto planted = genome::plant_sites(g, guide, cfg.pattern, 4, 1, 500);
  auto r = run_search(cfg, g, {.backend = backend_kind::sycl, .max_chunk = 16384});
  for (const auto& site : planted) {
    bool found = false;
    for (const auto& rec : r.records) {
      if (rec.query_index == 1 && rec.position == site.position &&
          rec.direction == site.strand && rec.mismatches == 1) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << site.position;
  }
}

TEST(BatchComparer, MixedThresholdsRespected) {
  genome::genome_t g;
  g.chroms.push_back({"chr", std::string(500, 'T')});
  std::string site = "GGCCGACCTGTCGCTGACGCTGG";
  site[0] = 'A';
  site[3] = 'A';  // 2 mismatches vs query 0's guide
  g.chroms[0].seq.replace(100, site.size(), site);
  search_config cfg;
  cfg.genome_path = "<mem>";
  cfg.pattern = "NNNNNNNNNNNNNNNNNNNNNRG";
  cfg.queries = {{"GGCCGACCTGTCGCTGACGCNNN", 1},   // excludes (mm=2 > 1)
                 {"GGCCGACCTGTCGCTGACGCNNN", 2}};  // includes
  auto r = run_search(cfg, g, {.backend = backend_kind::sycl});
  bool q0 = false, q1 = false;
  for (const auto& rec : r.records) {
    if (rec.position == 100 && rec.direction == '+') {
      if (rec.query_index == 0) q0 = true;
      if (rec.query_index == 1) q1 = true;
    }
  }
  EXPECT_FALSE(q0);
  EXPECT_TRUE(q1);
}

}  // namespace
