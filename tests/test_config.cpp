// Input-file format tests, and seeded hostile mutations of input files and
// GUIDE[:MM] lines through their parsers.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

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

/// One to three seeded edits of `text`: a byte substitution (any byte); an
/// inserted or deleted ':', space or newline; an inserted NUL or CR; or a
/// digit run replaced by a mismatch count past u16 (some past u64).
std::string mutate(util::rng& rng, std::string text) {
  static const std::vector<std::string> kBigCounts = {
      "65536", "70000", "4294967296", "18446744073709551615", "18446744073709551616",
      "99999999999999999999999"};
  static const std::string kSeparators = ": \n";
  for (util::u64 edits = 1 + rng.next_below(3); edits > 0; --edits) {
    const util::usize at = rng.next_below(text.size() + 1);
    switch (rng.next_below(5)) {
      case 0:
        if (!text.empty()) {
          text[rng.next_below(text.size())] = static_cast<char>(rng.next_below(256));
        }
        break;
      case 1:
        text.insert(at, 1, kSeparators[rng.next_below(kSeparators.size())]);
        break;
      case 2: {
        const auto hit = text.find_first_of(kSeparators, at);
        if (hit != std::string::npos) text.erase(hit, 1);
        break;
      }
      case 3:
        text.insert(at, 1, rng.next_bool(0.5) ? '\0' : '\r');
        break;
      default: {
        const auto first = text.find_first_of("0123456789", at);
        if (first == std::string::npos) break;
        const auto last = text.find_first_not_of("0123456789", first);
        text.replace(first, last == std::string::npos ? std::string::npos : last - first,
                     kBigCounts[rng.next_below(kBigCounts.size())]);
        break;
      }
    }
  }
  return text;
}

// Mutated input files either throw config_error or parse to a config whose
// pattern and guides pass the alphabet and length checks; none aborts or
// throws anything else. Both outcomes occur.
TEST(ConfigHostile, MutatedInputFilesThrowConfigErrorOrParseClean) {
  const std::vector<std::string> valid = {
      cof::example_input("synth:hg19"),
      "# genome\n\n/g.fa\n# pattern\nNNGG\n\nACGG 2\n# done\n",
      "/data/hg38\r\nnnnnnnnnnnnnnnnnnnnnnrg\r\nggccgacctgtcgctgacgcnnn 65535\r\n",
      "  /g.fa  \n\tNNNNRG\nRYSWKN 0\nACGTNN 4\n"};
  for (const auto& text : valid) ASSERT_NO_THROW((void)cof::parse_input(text)) << text;
  util::rng rng(2401);
  util::usize parsed = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string text = mutate(rng, valid[rng.next_below(valid.size())]);
    try {
      const cof::search_config cfg = cof::parse_input(text);
      EXPECT_NO_THROW(cof::check_alphabet(cfg)) << "case " << i;
      EXPECT_NO_THROW(cof::check_guide_lengths(cfg)) << "case " << i;
      EXPECT_FALSE(cfg.queries.empty()) << "case " << i;
      ++parsed;
    } catch (const cof::config_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 100u);
}

// Mutated GUIDE[:MM] lines either throw config_error (from parse_guide or
// from the alphabet check a search applies) or parse to a guide that passes
// it, with the text before the last ':' as the guide and the count after
// it (5 without one). Both outcomes occur.
TEST(ConfigHostile, MutatedGuideLinesThrowConfigErrorOrParseClean) {
  const std::vector<std::string> valid = {"GGCCGACCTGTCGCTGACGCNNN:3", "ACGG", "ACGG:0",
                                          "acgtRYSWKMBDHVN:65535", "NNNNNNNNNNNNNNNNNNNNNGG:12"};
  for (const auto& spec : valid) ASSERT_NO_THROW((void)cof::parse_guide(spec)) << spec;
  util::rng rng(2402);
  util::usize parsed = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string spec = mutate(rng, valid[rng.next_below(valid.size())]);
    try {
      const cof::query_spec q = cof::parse_guide(spec);
      cof::search_config cfg;
      cfg.pattern = q.seq;
      cfg.queries = {q};
      cof::check_alphabet(cfg);
      const auto colon = spec.rfind(':');
      EXPECT_EQ(q.seq, spec.substr(0, colon)) << "case " << i;
      unsigned long long mm = 5;
      if (colon != std::string::npos) {
        ASSERT_TRUE(util::parse_u64(spec.substr(colon + 1), mm)) << "case " << i;
      }
      EXPECT_EQ(q.max_mismatches, mm) << "case " << i;
      ++parsed;
    } catch (const cof::config_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
