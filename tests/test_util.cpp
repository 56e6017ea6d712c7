// Unit tests for the util layer: RNG, strings, CLI, arithmetic helpers,
// the word-wise hash.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "util/cli.hpp"
#include "util/common.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using util::rng;
using util::u64;

TEST(Rng, DeterministicForSeed) {
  rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  rng r(7);
  for (u64 bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  rng r(11);
  std::set<u64> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  rng r(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // mean of U[0,1)
}

TEST(Rng, BernoulliFrequency) {
  rng r(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ForkedStreamsIndependent) {
  rng a(21);
  rng fork = a.fork();
  // The fork must not replay the parent's future outputs.
  EXPECT_NE(fork.next_u64(), a.next_u64());
}

TEST(Strings, Trim) {
  EXPECT_EQ(util::trim("  abc  "), "abc");
  EXPECT_EQ(util::trim("abc"), "abc");
  EXPECT_EQ(util::trim(" \t\r\n "), "");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim("a b"), "a b");
}

TEST(Strings, Split) {
  auto t = util::split("a b\tc");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(util::split("   ").empty());
  EXPECT_EQ(util::split("x:y::z", ":").size(), 3u);  // empty tokens dropped
}

TEST(Strings, SplitLines) {
  auto lines = util::split_lines("a\r\nb\nc");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");  // \r stripped
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
  EXPECT_EQ(util::split_lines("a\n").size(), 2u);  // trailing empty line kept
}

TEST(Strings, ToUpper) { EXPECT_EQ(util::to_upper("acgtN"), "ACGTN"); }

TEST(Strings, StartsWith) {
  EXPECT_TRUE(util::starts_with("synth:hg19", "synth:"));
  EXPECT_FALSE(util::starts_with("syn", "synth:"));
}

TEST(Strings, Format) {
  EXPECT_EQ(util::format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(util::format("%s", ""), "");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(util::human_bytes(512), "512 B");
  EXPECT_EQ(util::human_bytes(2048), "2.0 KiB");
  EXPECT_EQ(util::human_bytes(3ull << 20), "3.0 MiB");
}

TEST(Strings, ParseU64) {
  unsigned long long v = 0;
  EXPECT_TRUE(util::parse_u64("123", v));
  EXPECT_EQ(v, 123u);
  EXPECT_TRUE(util::parse_u64("  42 ", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(util::parse_u64("0", v));
  EXPECT_FALSE(util::parse_u64("", v));
  EXPECT_FALSE(util::parse_u64("-1", v));
  EXPECT_FALSE(util::parse_u64("12x", v));
  EXPECT_FALSE(util::parse_u64("99999999999999999999999", v));  // overflow
  EXPECT_TRUE(util::parse_u64("18446744073709551615", v));      // max u64
  EXPECT_EQ(v, ~0ULL);
}

TEST(Arith, CeilDivRoundUp) {
  EXPECT_EQ(util::ceil_div(10, 3), 4);
  EXPECT_EQ(util::ceil_div(9, 3), 3);
  EXPECT_EQ(util::ceil_div(1, 5), 1);
  EXPECT_EQ(util::round_up(10, 4), 12);
  EXPECT_EQ(util::round_up(12, 4), 12);
  EXPECT_EQ(util::round_up<util::usize>(0, 16), 0u);
}

u64 digest_of(std::initializer_list<std::string_view> pieces) {
  util::word_hash h;
  for (const auto piece : pieces) h.feed(piece);
  return h.digest();
}

/// word_hash carries a partial word across feed() calls: every two- and
/// three-piece split of a 40-byte string has the digest of feeding it whole.
TEST(WordHash, EverySplitHasTheWholeDigest) {
  rng r(91);
  std::string s;
  for (int i = 0; i < 40; ++i) s += static_cast<char>(r.next_below(256));
  const std::string_view v(s);
  const u64 whole = digest_of({v});
  for (util::usize i = 0; i <= v.size(); ++i) {
    EXPECT_EQ(digest_of({v.substr(0, i), v.substr(i)}), whole) << i;
    for (util::usize j = i; j <= v.size(); ++j) {
      EXPECT_EQ(digest_of({v.substr(0, i), v.substr(i, j - i), v.substr(j)}), whole)
          << i << " " << j;
    }
  }
}

/// Every prefix of a 25-byte input with NULs inside, the input with one
/// more NUL, and every one-bit change of it give distinct digests.
TEST(WordHash, BitsAndLengthsChangeTheDigest) {
  using namespace std::string_literals;
  const std::string s = "GATTACA\0chr1\0ACGTNNNNRYKM"s;
  std::set<u64> seen;
  for (util::usize n = 0; n <= s.size(); ++n) {
    EXPECT_TRUE(seen.insert(digest_of({std::string_view(s).substr(0, n)})).second) << n;
  }
  EXPECT_TRUE(seen.insert(digest_of({s, std::string(1, '\0')})).second);
  for (util::usize i = 0; i < s.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string m = s;
      m[i] = static_cast<char>(m[i] ^ (1 << bit));
      EXPECT_TRUE(seen.insert(digest_of({m})).second) << i << " bit " << bit;
    }
  }
}

TEST(Cli, FlagsAndOptions) {
  util::cli cli("t", "test");
  cli.flag("verbose", "v");
  cli.opt("scale", "s", "256");
  const char* argv[] = {"t", "--verbose", "--scale", "512"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_EQ(cli.get_u64("scale"), 512u);
}

TEST(Cli, DefaultsApply) {
  util::cli cli("t", "test");
  cli.opt("scale", "s", "256");
  const char* argv[] = {"t"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_u64("scale"), 256u);
}

TEST(Cli, EqualsSyntax) {
  util::cli cli("t", "test");
  cli.opt("rate", "r", "1.0");
  const char* argv[] = {"t", "--rate=2.5"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 2.5);
}

TEST(Cli, Positionals) {
  util::cli cli("t", "test");
  cli.positional("input", "in", /*required=*/true);
  cli.positional("output", "out", /*required=*/false);
  const char* argv[] = {"t", "in.txt"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_positional("input"), "in.txt");
  EXPECT_EQ(cli.get_positional("output"), "");
}

TEST(Cli, MissingRequiredPositionalFails) {
  util::cli cli("t", "test");
  cli.positional("input", "in", /*required=*/true);
  const char* argv[] = {"t"};
  EXPECT_FALSE(cli.parse(1, argv));
}

TEST(Cli, UnknownOptionFails) {
  util::cli cli("t", "test");
  const char* argv[] = {"t", "--nope"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, MissingValueFails) {
  util::cli cli("t", "test");
  cli.opt("scale", "s", "1");
  const char* argv[] = {"t", "--scale"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpReturnsFalse) {
  util::cli cli("t", "test");
  const char* argv[] = {"t", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

}  // namespace
