// Input-file format tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/config.hpp"

namespace {

TEST(Config, ParsesExampleInput) {
  auto cfg = cof::parse_input(cof::example_input("synth:hg19"));
  EXPECT_EQ(cfg.genome_path, "synth:hg19");
  EXPECT_EQ(cfg.pattern, "NNNNNNNNNNNNNNNNNNNNNRG");
  ASSERT_EQ(cfg.queries.size(), 3u);
  EXPECT_EQ(cfg.queries[0].seq, "GGCCGACCTGTCGCTGACGCNNN");
  EXPECT_EQ(cfg.queries[0].max_mismatches, 5);
}

TEST(Config, SkipsCommentsAndBlankLines) {
  auto cfg = cof::parse_input(
      "# genome\n\n/g.fa\n# pattern\nNNGG\n\nACGG 2\n# done\n");
  EXPECT_EQ(cfg.genome_path, "/g.fa");
  EXPECT_EQ(cfg.pattern, "NNGG");
  ASSERT_EQ(cfg.queries.size(), 1u);
  EXPECT_EQ(cfg.queries[0].max_mismatches, 2);
}

TEST(Config, NormalisesCase) {
  auto cfg = cof::parse_input("/g\nnngg\nacgg 1\n");
  EXPECT_EQ(cfg.pattern, "NNGG");
  EXPECT_EQ(cfg.queries[0].seq, "ACGG");
}

TEST(ConfigErrors, QueryLengthMismatch) {
  EXPECT_THROW((void)cof::parse_input("/g\nNNGG\nACGGT 1\n"), cof::config_error);
}

TEST(ConfigErrors, MalformedQueryLine) {
  EXPECT_THROW((void)cof::parse_input("/g\nNNGG\nACGG\n"), cof::config_error);
  EXPECT_THROW((void)cof::parse_input("/g\nNNGG\nACGG x\n"), cof::config_error);
  EXPECT_THROW((void)cof::parse_input("/g\nNNGG\nACGG 70000\n"), cof::config_error);
}

TEST(ConfigErrors, NonIupacCharacters) {
  EXPECT_THROW((void)cof::parse_input("/g\nNNGG\nACZG 1\n"), cof::config_error);
  EXPECT_THROW((void)cof::parse_input("/g\nNN#G\nACGG 1\n"), cof::config_error);
}

TEST(ConfigErrors, MissingSections) {
  EXPECT_THROW((void)cof::parse_input(""), cof::config_error);
  EXPECT_THROW((void)cof::parse_input("/g\nNNGG\n"), cof::config_error);
}

TEST(GuideSpec, ParsesGuideAndMismatchCount) {
  const auto q = cof::parse_guide("GGCCGACCTGTCGCTGACGCNNN:3");
  EXPECT_EQ(q.seq, "GGCCGACCTGTCGCTGACGCNNN");
  EXPECT_EQ(q.max_mismatches, 3);
  EXPECT_EQ(cof::parse_guide("ACGG").max_mismatches, 5);  // the default
  EXPECT_EQ(cof::parse_guide("ACGG:0").max_mismatches, 0);
  EXPECT_EQ(cof::parse_guide("ACGG:65535").max_mismatches, 65535);
  // The guide is taken as written; the search checks its alphabet.
  EXPECT_EQ(cof::parse_guide("acgz:1").seq, "acgz");
}

TEST(GuideSpecErrors, MalformedMismatchCount) {
  for (const char* spec : {"ACGG:x", "ACGG:70000", "ACGG:", "ACGG:-1", "ACGG:1.5"}) {
    EXPECT_THROW((void)cof::parse_guide(spec), cof::config_error) << spec;
  }
}

TEST(GuideSpecErrors, EmptyGuide) {
  EXPECT_THROW((void)cof::parse_guide(""), cof::config_error);
  EXPECT_THROW((void)cof::parse_guide(":3"), cof::config_error);
}

TEST(ConfigErrors, CheckedConfigBuiltInCode) {
  cof::search_config cfg;
  cfg.pattern = "NNGG";
  cfg.queries = {{"acgg", 1}};
  EXPECT_NO_THROW(cof::check_alphabet(cfg));
  EXPECT_NO_THROW(cof::check_guide_lengths(cfg));
  cfg.queries.push_back({"ACGZ", 1});
  EXPECT_THROW(cof::check_alphabet(cfg), cof::config_error);
  cfg.queries.back() = {"ACGGT", 1};
  EXPECT_NO_THROW(cof::check_alphabet(cfg));
  EXPECT_THROW(cof::check_guide_lengths(cfg), cof::config_error);
  cfg.pattern.clear();
  EXPECT_THROW(cof::check_alphabet(cfg), cof::config_error);
}

TEST(Config, ReadFromFile) {
  namespace fs = std::filesystem;
  const auto path =
      fs::temp_directory_path() / ("cof_cfg_" + std::to_string(::getpid()) + ".txt");
  {
    std::ofstream out(path);
    out << cof::example_input("synth:hg38");
  }
  auto cfg = cof::read_input_file(path.string());
  EXPECT_EQ(cfg.genome_path, "synth:hg38");
  EXPECT_EQ(cfg.queries.size(), 3u);
  fs::remove(path);
}

TEST(ConfigErrors, MissingFile) {
  EXPECT_THROW((void)cof::read_input_file("/no/such/input.txt"), cof::config_error);
}

}  // namespace
