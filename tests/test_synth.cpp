// Synthetic-assembly generator tests: determinism, composition, gaps,
// presets, planted-site ground truth, URI parsing.
#include <gtest/gtest.h>

#include "gtest_compat.hpp"

#include "genome/iupac.hpp"
#include "genome/synth.hpp"

namespace {

genome::synth_params small_params(util::u64 seed = 1) {
  genome::synth_params p;
  p.assembly = "test";
  p.chromosomes = {{"chrA", 50000}, {"chrB", 30000}};
  p.seed = seed;
  return p;
}

TEST(Synth, DeterministicInSeed) {
  auto a = genome::generate(small_params(7));
  auto b = genome::generate(small_params(7));
  ASSERT_EQ(a.chroms.size(), b.chroms.size());
  for (size_t i = 0; i < a.chroms.size(); ++i) EXPECT_EQ(a.chroms[i].seq, b.chroms[i].seq);
}

TEST(Synth, DifferentSeedsDiffer) {
  auto a = genome::generate(small_params(1));
  auto b = genome::generate(small_params(2));
  EXPECT_NE(a.chroms[0].seq, b.chroms[0].seq);
}

TEST(Synth, LengthsMatchSpec) {
  auto g = genome::generate(small_params());
  ASSERT_EQ(g.chroms.size(), 2u);
  EXPECT_EQ(g.chroms[0].name, "chrA");
  EXPECT_EQ(g.chroms[0].seq.size(), 50000u);
  EXPECT_EQ(g.chroms[1].seq.size(), 30000u);
}

TEST(Synth, GapFractionApproximatelyRespected) {
  auto p = small_params();
  p.gap_fraction = 0.10;
  auto g = genome::generate(p);
  const double n_frac =
      1.0 - static_cast<double>(g.non_n_bases()) / static_cast<double>(g.total_bases());
  EXPECT_NEAR(n_frac, 0.10, 0.03);
}

TEST(Synth, TelomeresAreGaps) {
  auto g = genome::generate(small_params());
  EXPECT_EQ(g.chroms[0].seq.front(), 'N');
  EXPECT_EQ(g.chroms[0].seq.back(), 'N');
}

TEST(Synth, GcContentApproximatelyRespected) {
  auto p = small_params();
  p.gap_fraction = 0;
  p.repeat_density = 0;
  p.gc_content = 0.41;
  auto g = genome::generate(p);
  util::usize gc = 0, total = 0;
  for (char c : g.chroms[0].seq) {
    if (c == 'G' || c == 'C') ++gc;
    if (c != 'N') ++total;
  }
  EXPECT_NEAR(static_cast<double>(gc) / total, 0.41, 0.02);
}

TEST(Synth, Hg19PresetProportionalLengths) {
  auto p = genome::hg19_like(1024);
  ASSERT_FALSE(p.chromosomes.empty());
  EXPECT_EQ(p.chromosomes[0].first, "chr1");
  // chr1:chr2 real ratio ~249:243 preserved.
  const double ratio = static_cast<double>(p.chromosomes[0].second) /
                       static_cast<double>(p.chromosomes[1].second);
  EXPECT_NEAR(ratio, 249.25 / 243.2, 0.01);
}

TEST(Synth, Hg38HasMoreSearchableSequenceThanHg19) {
  auto g19 = genome::generate(genome::hg19_like(2048));
  auto g38 = genome::generate(genome::hg38_like(2048));
  EXPECT_GT(g38.total_bases(), g19.total_bases());  // alt contigs included
  const double non_n_19 =
      static_cast<double>(g19.non_n_bases()) / static_cast<double>(g19.total_bases());
  const double non_n_38 =
      static_cast<double>(g38.non_n_bases()) / static_cast<double>(g38.total_bases());
  EXPECT_GT(non_n_38, non_n_19);  // fewer gaps
}

TEST(Synth, LargeScaleDropsTinyChromosomes) {
  auto p = genome::hg19_like(100000);
  for (const auto& [name, len] : p.chromosomes) EXPECT_GE(len, 2048u);
}

TEST(PlantSites, GroundTruthWrittenVerbatim) {
  auto g = genome::generate(small_params(9));
  const std::string pattern = "NNNNNNNNNNNNNNNNNNNNNRG";
  const std::string guide = "GGCCGACCTGTCGCTGACGCNGG";
  auto sites = genome::plant_sites(g, guide, pattern, 5, 0, 77);
  ASSERT_EQ(sites.size(), 5u);
  for (const auto& s : sites) {
    const std::string got =
        g.chroms[s.chrom_index].seq.substr(s.position, guide.size());
    EXPECT_EQ(got, s.written);
  }
}

TEST(PlantSites, ExactSitesMatchGuide) {
  auto g = genome::generate(small_params(10));
  const std::string pattern = "NNNNNNNNNNNNNNNNNNNNNRG";
  const std::string guide = "GGCCGACCTGTCGCTGACGCNGG";
  auto sites = genome::plant_sites(g, guide, pattern, 5, 0, 78);
  for (const auto& s : sites) {
    const std::string site = s.strand == '+'
                                 ? s.written
                                 : genome::reverse_complement(s.written);
    for (size_t k = 0; k < guide.size(); ++k) {
      EXPECT_FALSE(genome::casoffinder_mismatch(guide[k], site[k]))
          << "pos " << k << " of " << site;
    }
  }
}

TEST(PlantSites, MismatchCountIsExactUnderKernelSemantics) {
  auto g = genome::generate(small_params(11));
  const std::string pattern = "NNNNNNNNNNNNNNNNNNNNNRG";
  const std::string guide = "GGCCGACCTGTCGCTGACGCNGG";
  const std::string query = "GGCCGACCTGTCGCTGACGCNNN";  // N at PAM
  for (unsigned mm : {1u, 3u, 5u}) {
    auto sites = genome::plant_sites(g, guide, pattern, 4, mm, 100 + mm);
    for (const auto& s : sites) {
      const std::string site = s.strand == '+'
                                   ? s.written
                                   : genome::reverse_complement(s.written);
      unsigned count = 0;
      for (size_t k = 0; k < query.size(); ++k) {
        count += genome::casoffinder_mismatch(query[k], site[k]);
      }
      EXPECT_EQ(count, mm);
    }
  }
}

TEST(PlantSites, BothStrandsAppear) {
  auto g = genome::generate(small_params(12));
  auto sites = genome::plant_sites(g, "GGCCGACCTGTCGCTGACGCNGG",
                                   "NNNNNNNNNNNNNNNNNNNNNRG", 20, 0, 55);
  int fw = 0, rc = 0;
  for (const auto& s : sites) (s.strand == '+' ? fw : rc)++;
  EXPECT_GT(fw, 0);
  EXPECT_GT(rc, 0);
}

TEST(SynthUri, ParsesScaleAndSeed) {
  auto g = genome::load_synth_uri("synth:hg19:8192");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->assembly, "hg19-synth");
  auto g2 = genome::load_synth_uri("synth:hg38:8192:77");
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->assembly, "hg38-synth");
  EXPECT_FALSE(genome::load_synth_uri("/path/to/genome.fa").has_value());
}

TEST(SynthUriDeath, UnknownAssembly) {
  EXPECT_THROW((void)genome::load_synth_uri("synth:mouse"), genome::fasta_error);
}

/// Every malformed synth: line throws the genome layer's input error
/// instead of aborting: no assembly, an unknown one, a scale that is not a
/// whole number >= 1 or leaves no chromosome, a bad seed, extra fields.
TEST(SynthUri, MalformedUrisThrowFastaError) {
  for (const char* uri : {"synth:", "synth:hg99", "synth:hg19:abc", "synth:hg19:0",
                          "synth:hg38:99999999999", "synth:hg19:8192:x",
                          "synth:hg19:8192:1:2"}) {
    EXPECT_THROW((void)genome::load_synth_uri(uri), genome::fasta_error) << uri;
    EXPECT_THROW((void)genome::load_genome(uri), genome::fasta_error) << uri;
  }
}

TEST(SynthUri, DeterministicForSameUri) {
  auto a = genome::load_synth_uri("synth:hg19:16384");
  auto b = genome::load_synth_uri("synth:hg19:16384");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->chroms[0].seq, b->chroms[0].seq);
}

}  // namespace
