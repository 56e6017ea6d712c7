// 2-bit packed pipeline tests: kernel-level semantics and end-to-end
// equivalence with the char pipelines on ACGTN genomes, plus the transfer
// saving the format exists for.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/kernels_twobit.hpp"
#include "genome/synth.hpp"
#include "genome/twobit.hpp"

namespace {

using namespace cof;

TEST(TwobitMismatch, MatchesCharSemanticsOnConcreteBases) {
  const std::string ref = "ACGT";
  const auto packed = genome::twobit_seq::encode(ref);
  direct_mem::item p;
  const std::string codes = "ACGTRYSWKMBDHVN";
  for (char pat : codes) {
    for (usize i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(twobit_mismatch(p, pat, packed.packed().data(),
                                packed.ambiguity_words().data(), i),
                genome::casoffinder_mismatch(pat, ref[i]))
          << pat << " vs " << ref[i];
    }
  }
}

TEST(TwobitMismatch, AmbiguousReferenceBehavesLikeN) {
  const auto packed = genome::twobit_seq::encode("NNNN");
  direct_mem::item p;
  const std::string codes = "ACGTRYSWKMBDHVN";
  for (char pat : codes) {
    EXPECT_EQ(twobit_mismatch(p, pat, packed.packed().data(),
                              packed.ambiguity_words().data(), 0),
              genome::casoffinder_mismatch(pat, 'N'))
        << pat;
  }
}

genome::genome_t test_genome(util::u64 seed, util::usize len = 40000) {
  genome::synth_params p;
  p.assembly = "tb-test";
  p.chromosomes = {{"chrA", len}};
  p.seed = seed;
  return genome::generate(p);
}

TEST(TwobitPipeline, MatchesCharPipeline) {
  auto g = test_genome(31);
  auto cfg = parse_input(example_input("<mem>"));
  auto chars = run_search(cfg, g, {.backend = backend_kind::sycl, .max_chunk = 16384});
  auto packed =
      run_search(cfg, g, {.backend = backend_kind::sycl_twobit, .max_chunk = 16384});
  EXPECT_EQ(packed.records, chars.records);
}

class TwobitSweep : public ::testing::TestWithParam<int> {};

TEST_P(TwobitSweep, MatchesSerialAcrossSeeds) {
  auto g = test_genome(static_cast<util::u64>(100 + GetParam()), 20000);
  auto cfg = parse_input(example_input("<mem>"));
  auto serial = run_search(cfg, g, {.backend = backend_kind::serial});
  auto packed =
      run_search(cfg, g, {.backend = backend_kind::sycl_twobit, .max_chunk = 7000});
  EXPECT_EQ(packed.records, serial.records);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwobitSweep, ::testing::Range(0, 5));

// Pinned to a char variant: under opt6 every facade uploads the same words.
TEST(TwobitPipeline, UploadsFractionOfCharBytes) {
  auto g = test_genome(32);
  auto cfg = parse_input(example_input("<mem>"));
  auto chars = run_search(cfg, g,
                          {.backend = backend_kind::sycl,
                           .variant = comparer_variant::base,
                           .max_chunk = 16384});
  auto packed = run_search(cfg, g,
                           {.backend = backend_kind::sycl_twobit,
                            .variant = comparer_variant::base,
                            .max_chunk = 16384});
  // 2 bits/base + 1 amb bit/base ~= 0.375x, plus identical pattern traffic.
  EXPECT_LT(packed.metrics.pipeline.h2d_bytes,
            chars.metrics.pipeline.h2d_bytes / 2);
}

TEST(TwobitPipeline, PlantedRecallWithGaps) {
  auto g = test_genome(33, 60000);
  auto cfg = parse_input(example_input("<mem>"));
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  auto planted = genome::plant_sites(g, guide, cfg.pattern, 5, 1, 77);
  auto r =
      run_search(cfg, g, {.backend = backend_kind::sycl_twobit, .max_chunk = 16384});
  for (const auto& site : planted) {
    bool found = false;
    for (const auto& rec : r.records) {
      if (rec.query_index == 0 && rec.position == site.position &&
          rec.direction == site.strand && rec.mismatches == 1) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << site.position;
  }
}

TEST(TwobitPipeline, CountingModeWorks) {
  auto g = test_genome(34, 15000);
  auto cfg = parse_input(example_input("<mem>"));
  prof::profiler prof;
  auto r = run_search(cfg, g,
                      {.backend = backend_kind::sycl_twobit,
                       .variant = comparer_variant::base,
                       .max_chunk = 8192,
                       .counting = true,
                       .profiler = &prof});
  EXPECT_GT(prof.get("comparer/2bit").events[prof::ev::global_load], 0u);
  // The packed comparer reads bytes/words instead of chars: fewer load
  // *bytes* per compare than chars would need at the same compare count.
  auto base = run_search(cfg, g, {.backend = backend_kind::sycl, .max_chunk = 8192});
  EXPECT_EQ(r.records, base.records);
}

}  // namespace
