// Pattern/query device-array construction tests.
#include <gtest/gtest.h>

#include "gtest_compat.hpp"

#include "core/config.hpp"
#include "core/pattern.hpp"
#include "genome/iupac.hpp"

namespace {

TEST(Pattern, NormalizeSequence) {
  EXPECT_EQ(cof::normalize_sequence("acgu"), "ACGT");
  EXPECT_EQ(cof::normalize_sequence("nNrY"), "NNRY");
}

TEST(PatternDeath, RejectsNonIupac) {
  EXPECT_THROW((void)cof::normalize_sequence("ACGZ"), cof::config_error);
  EXPECT_THROW((void)cof::normalize_sequence(""), cof::config_error);
}

TEST(Pattern, FwRcLayout) {
  auto p = cof::make_pattern("NNAG");
  EXPECT_EQ(p.plen, 4u);
  EXPECT_EQ(p.fwrc, "NNAG" + genome::reverse_complement("NNAG"));
  EXPECT_EQ(p.fwrc.substr(4), "CTNN");
}

TEST(Pattern, IndexListsNonNPositions) {
  auto p = cof::make_pattern("NNAG");
  // forward half: positions 2,3 then -1 padding
  EXPECT_EQ(p.index[0], 2);
  EXPECT_EQ(p.index[1], 3);
  EXPECT_EQ(p.index[2], -1);
  EXPECT_EQ(p.index[3], -1);
  // reverse-complement half "CTNN": positions 0,1
  EXPECT_EQ(p.index[4], 0);
  EXPECT_EQ(p.index[5], 1);
  EXPECT_EQ(p.index[6], -1);
}

TEST(Pattern, AllNPatternHasEmptyIndex) {
  auto p = cof::make_pattern("NNNN");
  for (auto v : p.index) EXPECT_EQ(v, -1);
}

TEST(Pattern, NoNPatternHasFullIndex) {
  auto p = cof::make_pattern("ACGT");
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(p.index[k], k);
    EXPECT_EQ(p.index[4 + k], k);
  }
}

TEST(Pattern, PaperPatternIndexesOnlyPam) {
  auto p = cof::make_pattern("NNNNNNNNNNNNNNNNNNNNNRG");
  EXPECT_EQ(p.plen, 23u);
  // forward: R at 21, G at 22
  EXPECT_EQ(p.index[0], 21);
  EXPECT_EQ(p.index[1], 22);
  EXPECT_EQ(p.index[2], -1);
  // reverse complement = "CYNNN...": C at 0, Y at 1
  EXPECT_EQ(p.fwrc[23], 'C');
  EXPECT_EQ(p.fwrc[24], 'Y');
  EXPECT_EQ(p.index[23], 0);
  EXPECT_EQ(p.index[24], 1);
  EXPECT_EQ(p.index[25], -1);
}

TEST(Pattern, QueryIndexesGuideBases) {
  auto q = cof::make_query("GGCCGACCTGTCGCTGACGCNNN");
  EXPECT_EQ(q.plen, 23u);
  for (int k = 0; k < 20; ++k) EXPECT_EQ(q.index[k], k);
  EXPECT_EQ(q.index[20], -1);
  // rc half: "NNN" maps to front, guide rc occupies positions 3..22
  EXPECT_EQ(q.index[23], 3);
  EXPECT_EQ(q.index[23 + 19], 22);
  EXPECT_EQ(q.index[23 + 20], -1);
}

TEST(Pattern, DeviceAccessorsSizes) {
  auto q = cof::make_query("ACGTN");
  EXPECT_EQ(q.device_chars(), 10u);
  EXPECT_EQ(q.index.size(), 10u);
  EXPECT_EQ(q.data()[0], 'A');
  EXPECT_EQ(q.index_data()[0], 0);
}

TEST(Pattern, UConvertsToT) {
  auto q = cof::make_query("UUGG");
  EXPECT_EQ(q.seq, "TTGG");
}

}  // namespace
