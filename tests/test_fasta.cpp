// FASTA parser/writer tests, including directory loading, the byte and line
// rules every reader shares through fasta_stream (checked against a
// getline reference decoder that shares none of its code, on both dispatch
// paths and across the stream's block reads), and hostile input failing
// with fasta_error.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "core/config.hpp"
#include "core/engine_stream.hpp"
#include "genome/fasta.hpp"
#include "genome/fasta_stream.hpp"
#include "genome/iupac.hpp"
#include "util/cpufeat.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;

TEST(Fasta, ParseSingleRecord) {
  auto recs = genome::parse_fasta(">chr1 human chromosome 1\nACGT\nacgt\n");
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].name, "chr1");  // description dropped
  EXPECT_EQ(recs[0].seq, "ACGTACGT");  // wrapped + upper-cased
}

TEST(Fasta, ParseMultiRecord) {
  auto recs = genome::parse_fasta(">a\nAC\n>b\nGT\nNN\n>c\nTTTT");
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[1].name, "b");
  EXPECT_EQ(recs[1].seq, "GTNN");
  EXPECT_EQ(recs[2].seq, "TTTT");
}

TEST(Fasta, SkipsCommentsAndBlankLines) {
  auto recs = genome::parse_fasta("; legacy comment\n>x\n\nAC\n;mid\nGT\n");
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].seq, "ACGT");
}

TEST(Fasta, CrlfLineEndings) {
  auto recs = genome::parse_fasta(">x\r\nACGT\r\nAC\r\n");
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].seq, "ACGTAC");
}

TEST(Fasta, EmptySequenceRecordAllowed) {
  auto recs = genome::parse_fasta(">empty\n>full\nAC\n");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_TRUE(recs[0].seq.empty());
}

TEST(FastaHostile, SequenceBeforeHeader) {
  EXPECT_THROW((void)genome::parse_fasta("ACGT\n"), genome::fasta_error);
}

TEST(FastaHostile, HeaderWithEmptyName) {
  EXPECT_THROW((void)genome::parse_fasta(">\nACGT\n"), genome::fasta_error);
  EXPECT_THROW((void)genome::parse_fasta(">x\nAC\n>  \t\nGT\n"), genome::fasta_error);
}

TEST(Fasta, WriteWrapsLines) {
  std::vector<genome::chromosome> recs{{"x", "AAAACCCCGGGG"}};
  EXPECT_EQ(genome::write_fasta(recs, 4), ">x\nAAAA\nCCCC\nGGGG\n");
  EXPECT_EQ(genome::write_fasta(recs, 100), ">x\nAAAACCCCGGGG\n");
}

TEST(FastaProperty, WriteParseRoundTrip) {
  std::vector<genome::chromosome> recs{
      {"chr1", "ACGTACGTACGTNNNNACGT"}, {"chr2", "G"}, {"chrM", std::string(257, 'T')}};
  for (util::usize width : {1u, 7u, 60u, 1000u}) {
    auto parsed = genome::parse_fasta(genome::write_fasta(recs, width));
    ASSERT_EQ(parsed.size(), recs.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(parsed[i].name, recs[i].name);
      EXPECT_EQ(parsed[i].seq, recs[i].seq);
    }
  }
}

TEST(Fasta, NonNBaseCount) {
  genome::genome_t g;
  g.chroms = {{"a", "ACGTN"}, {"b", "NNRYA"}};
  EXPECT_EQ(g.total_bases(), 10u);
  EXPECT_EQ(g.non_n_bases(), 5u);  // R/Y are not concrete
}

/// The six isspace bytes, which a sequence line drops.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// RAII pin of the SIMD tier to scalar (on) or the host's best (off), so a
/// failing assertion cannot leak the cap into later tests.
struct scalar_guard {
  util::simd_tier prev;
  explicit scalar_guard(bool on) : prev(util::tier_cap()) {
    util::cap_tier(on ? util::simd_tier::scalar : util::simd_tier::avx512);
  }
  ~scalar_guard() { util::cap_tier(prev); }
};

struct temp_dir {
  fs::path path;
  temp_dir() {
    path = fs::temp_directory_path() / ("cof_fasta_test_" + std::to_string(::getpid()));
    fs::create_directories(path);
  }
  ~temp_dir() { fs::remove_all(path); }
};

// ---------------------------------------------------------------------------
// fasta_stream against a reference decoder that shares none of its code.
// ---------------------------------------------------------------------------

/// (name, bases) of each record, in order.
using named_seqs = std::vector<std::pair<std::string, std::string>>;

/// The FASTA rule, applied line by line with std::getline: trim the six
/// isspace bytes off both ends; skip blank lines and ';' comments; a '>'
/// line starts a record named by its first space- or tab-delimited word;
/// any other line adds its bytes, the six isspace bytes dropped and the rest
/// through upper_base. nullopt where the rule rejects the text: sequence
/// before the first header, a header without a name, or no record.
std::optional<named_seqs> reference_records(const std::string& text) {
  std::istringstream in(text);
  named_seqs out;
  for (std::string line; std::getline(in, line);) {
    util::usize b = 0;
    util::usize e = line.size();
    while (b < e && is_space(line[b])) ++b;
    while (e > b && is_space(line[e - 1])) --e;
    const std::string t = line.substr(b, e - b);
    if (t.empty() || t[0] == ';') continue;
    if (t[0] == '>') {
      const auto start = t.find_first_not_of(" \t", 1);
      if (start == std::string::npos) return std::nullopt;
      out.emplace_back(t.substr(start, t.find_first_of(" \t", start) - start), "");
      continue;
    }
    if (out.empty()) return std::nullopt;
    for (const char c : t) {
      if (!is_space(c)) out.back().second += genome::upper_base(c);
    }
  }
  if (out.empty()) return std::nullopt;
  return out;
}

/// Every record of `s`, each drained by read_bases calls of at most `step`
/// bases; nullopt when the stream throws fasta_error.
std::optional<named_seqs> stream_records(genome::fasta_stream s, util::usize step) {
  named_seqs out;
  try {
    while (s.next_record()) {
      out.emplace_back(s.record_name(), "");
      while (s.read_bases(out.back().second, step) != 0) {
      }
    }
  } catch (const genome::fasta_error&) {
    return std::nullopt;
  }
  return out;
}

/// fasta_stream reading `text` from memory (and from `file` when one is
/// named, after writing the text there) on both dispatch paths, drained 7
/// bases at a time (below the SIMD decode's 32), 33 at a time and a whole
/// record at a time, against reference_records.
void expect_matches_reference(const std::string& text, const std::string& where,
                              const std::string& file = "") {
  const auto want = reference_records(text);
  if (!file.empty()) std::ofstream(file, std::ios::binary | std::ios::trunc) << text;
  for (const bool scalar : {false, true}) {
    scalar_guard pin(scalar);
    for (const util::usize step : {util::usize{7}, util::usize{33}, util::usize{1} << 20}) {
      const std::string how = where + (scalar ? " scalar" : " simd") +
                              " step=" + std::to_string(step);
      const auto got = stream_records(genome::fasta_stream::from_text(text), step);
      ASSERT_EQ(got.has_value(), want.has_value()) << how;
      if (want.has_value()) {
        ASSERT_EQ(*got, *want) << how;
      }
      if (file.empty()) continue;
      const auto read = stream_records(genome::fasta_stream(file), step);
      ASSERT_EQ(read.has_value(), want.has_value()) << how << " file";
      if (want.has_value()) {
        ASSERT_EQ(*read, *want) << how << " file";
      }
    }
  }
}

/// `len` random bytes: upper- and lower-case IUPAC codes and a few other
/// bytes, plus the six isspace bytes when `spaces` is set.
std::string random_line(util::rng& rng, util::usize len, bool spaces) {
  static const std::string solid = "ACGTNRYSWKMBDHVacgtnryswkmbdhvX-*.\x01\x7f\x80\xff";
  static const std::string spaced = solid + " \t\v\f\r";
  const std::string& alpha = spaces ? spaced : solid;
  std::string s;
  for (util::usize i = 0; i < len; ++i) s += alpha[rng.next_below(alpha.size())];
  return s;
}

TEST(Fasta, LoadGenomeFromFile) {
  temp_dir dir;
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), {{"chrZ", "ACGTACGT"}});
  auto g = genome::load_genome(file.string());
  ASSERT_EQ(g.chroms.size(), 1u);
  EXPECT_EQ(g.chroms[0].name, "chrZ");
  EXPECT_EQ(g.chroms[0].seq, "ACGTACGT");
}

TEST(Fasta, LoadGenomeFromDirectorySortedByFile) {
  temp_dir dir;
  genome::write_fasta_file((dir.path / "b_chr2.fa").string(), {{"chr2", "GG"}});
  genome::write_fasta_file((dir.path / "a_chr1.fasta").string(), {{"chr1", "AA"}});
  std::ofstream(dir.path / "ignored.txt") << "not fasta";
  auto g = genome::load_genome(dir.path.string());
  ASSERT_EQ(g.chroms.size(), 2u);
  EXPECT_EQ(g.chroms[0].name, "chr1");  // file-name order
  EXPECT_EQ(g.chroms[1].name, "chr2");
}

/// Every byte value 0..255 inside one sequence line (between "AC" and
/// "GT"), through all three decoders: the six isspace bytes are dropped
/// and every other byte passes through upper_base, NUL and bytes >= 0x80
/// included. The '\n' byte splits the line in two, which the rule drops
/// all the same.
TEST(FastaDecode, EveryByteValueThroughEveryDecoder) {
  std::string line = "AC";
  std::string want = "AC";
  std::string solid;  // every non-space byte: one whitespace-free line
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    line += c;
    if (!is_space(c)) {
      want += genome::upper_base(c);
      solid += c;
    }
  }
  line += "GT";
  want += "GT";
  ASSERT_EQ(want.size(), 2u + 250u + 2u);
  // A whitespace-free line of 32 bytes or more takes the SIMD decode where
  // the host has it: every non-space byte value goes through it too.
  for (const char c : solid) want += genome::upper_base(c);
  const std::string text = ">chr bytes\n" + line + "\n" + solid + "\n";

  const auto recs = genome::parse_fasta(text);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].seq, want);

  temp_dir dir;
  const auto file = dir.path / "bytes.fa";
  std::ofstream(file, std::ios::binary) << text;
  genome::fasta_stream s(file.string());
  ASSERT_TRUE(s.next_record());
  std::string streamed;
  while (s.read_bases(streamed, 7) != 0) {
  }
  EXPECT_EQ(streamed, want);

  const auto sum = genome::summarize_source(file.string());
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->total_bases, want.size());
  genome::genome_t g;
  g.chroms = {{"chr", want}};
  EXPECT_EQ(sum->hash, genome::content_hash(g));
}

/// One line rule for every reader: each classifies the trimmed line, so an
/// indented '>' starts a record and an indented ';' is a comment in
/// parse_fasta, fasta_stream and summarize_source alike.
TEST(FastaDecode, IndentedHeadersAndCommentsAgreeAcrossReaders) {
  const std::string text =
      ">chr1 first\nACGTACGT\n  ; indented comment\nacgtNN\n"
      "  >chr2 indented\r\nGGCCRY\n\t>chr3\n \t;tabbed comment\nTTTT  \n";
  const auto recs = genome::parse_fasta(text);
  ASSERT_EQ(recs.size(), 3u);
  genome::genome_t want;
  want.chroms = recs;
  EXPECT_EQ(recs[1].name, "chr2");
  EXPECT_EQ(recs[1].seq, "GGCCRY");

  temp_dir dir;
  const auto file = dir.path / "indented.fa";
  std::ofstream(file, std::ios::binary) << text;
  genome::fasta_stream s(file.string());
  genome::genome_t streamed;
  while (s.next_record()) streamed.chroms.push_back({s.record_name(), s.read_all()});
  ASSERT_EQ(streamed.chroms.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(streamed.chroms[i].name, recs[i].name) << i;
    EXPECT_EQ(streamed.chroms[i].seq, recs[i].seq) << i;
  }
  EXPECT_EQ(genome::content_hash(streamed), genome::content_hash(want));

  const auto sum = genome::summarize_source(file.string());
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->names, (std::vector<std::string>{"chr1", "chr2", "chr3"}));
  EXPECT_EQ(sum->total_bases, want.total_bases());
  EXPECT_EQ(sum->hash, genome::content_hash(want));
}

/// content_hash feeds name NUL bases NUL eight bytes per step, carrying a
/// partial word from one feed to the next; summarize_source feeds the same
/// bytes in other pieces (the name, then each 64 KiB block of bases).
/// Records of 0-17 bases under names of 1-9 bytes start and end their bases
/// at every offset within a word, and a record of two blocks and 13 bases
/// splits its bases off word boundaries: both hashes agree on every file.
/// A one-base change at any offset of a 1 kb record changes the hash.
TEST(FastaHash, PartialWordsCarryAcrossFeeds) {
  temp_dir dir;
  const std::string file = (dir.path / "hash.fa").string();
  util::rng rng(1717);
  const auto bases = [&](std::size_t n) {
    std::string s;
    for (std::size_t i = 0; i < n; ++i) s += "ACGTN"[rng.next_below(5)];
    return s;
  };
  const auto expect_agree = [&](const std::vector<genome::chromosome>& recs,
                                const std::string& where) {
    genome::write_fasta_file(file, recs, 5);
    const auto sum = genome::summarize_source(file);
    ASSERT_TRUE(sum.has_value()) << where;
    EXPECT_EQ(sum->hash, genome::content_hash(genome::load_genome(file))) << where;
  };
  for (std::size_t name_len = 1; name_len <= 9; ++name_len) {
    for (std::size_t len = 0; len <= 17; ++len) {
      expect_agree({{std::string(name_len, 'c'), bases(len)}, {"r2", bases(17 - len)}},
                   "name " + std::to_string(name_len) + " bases " + std::to_string(len));
    }
  }
  expect_agree({{"chr5", bases(2 * 65536 + 13)}, {"chrM", bases(9)}}, "two blocks");

  genome::genome_t g;
  g.chroms = {{"chr1", bases(1000)}};
  const auto h = genome::content_hash(g);
  for (std::size_t i = 0; i < 1000; ++i) {
    genome::genome_t m = g;
    m.chroms[0].seq[i] = m.chroms[0].seq[i] == 'A' ? 'C' : 'A';
    EXPECT_NE(genome::content_hash(m), h) << "offset " << i;
  }
}

/// The same hostile files through the file-level decoders and the
/// streamed search, which rethrows the producer's error after joining.
TEST(FastaHostile, EveryEntryPointThrows) {
  temp_dir dir;
  for (const char* text : {"ACGT\n>chr\nACGT\n", ">chr\nACGT\n>\nACGT\n"}) {
    const auto file = dir.path / "hostile.fa";
    std::ofstream(file, std::ios::binary) << text;
    EXPECT_THROW((void)genome::read_fasta_file(file.string()), genome::fasta_error)
        << text;
    EXPECT_THROW((void)genome::summarize_source(file.string()), genome::fasta_error)
        << text;
    EXPECT_THROW(
        {
          genome::fasta_stream s(file.string());
          while (s.next_record()) (void)s.read_all();
        },
        genome::fasta_error)
        << text;
    const auto cfg = cof::parse_input(cof::example_input(file.string()));
    EXPECT_THROW((void)cof::run_search_streaming(cfg, file.string(), {}),
                 genome::fasta_error)
        << text;
  }
}

/// An unreadable or empty source fails with fasta_error on both entry
/// points: a missing file, a directory without FASTA files, and a FASTA
/// with no records, loaded in memory or streamed.
TEST(FastaHostile, UnreadableOrEmptySourceThrows) {
  temp_dir dir;
  const auto empty_dir = dir.path / "no_fasta";
  fs::create_directories(empty_dir);
  std::ofstream(empty_dir / "notes.txt") << "not fasta";
  const auto empty_file = dir.path / "empty.fa";
  std::ofstream(empty_file) << "; only a comment\n\n";
  for (const std::string& path :
       {std::string("/nonexistent/p.fa"), empty_dir.string(), empty_file.string()}) {
    EXPECT_THROW((void)genome::load_genome(path), genome::fasta_error) << path;
    const auto cfg = cof::parse_input(cof::example_input(path));
    EXPECT_THROW((void)cof::run_search_streaming(cfg, path, {}), genome::fasta_error)
        << path;
  }
  EXPECT_THROW((void)genome::read_fasta_file("/nonexistent/p.fa"), genome::fasta_error);
  EXPECT_THROW((void)genome::fasta_files_at(empty_dir.string()), genome::fasta_error);
}

/// Hostile-byte loop: seeded mutations of a small multi-record FASTA — byte
/// substitutions; an inserted '>', ';', NUL, CR, tab or pair of spaces, at
/// a random byte or a line start; a cut before and inside every line. Each
/// case decodes through fasta_stream as the getline reference does (both
/// dispatch paths), and either throws fasta_error from load_genome,
/// summarize_source and run_search_streaming alike, or all three agree: the
/// summary carries the loaded genome's names, base count and content_hash,
/// and the streamed records equal run_search on the loaded genome.
TEST(FastaHostile, MutatedFastaThrowsEverywhereOrAgreesEverywhere) {
  temp_dir dir;
  util::rng rng(2024);
  const std::string site = "GGCCGACCTGTCGCTGACGCTGG";
  std::vector<genome::chromosome> recs;
  for (const char* name : {"chr1 first record", "chr2", "chrM"}) {
    const util::usize len = 150 + rng.next_below(200);
    std::string seq;
    for (util::usize i = 0; i < len; ++i) seq += "ACGT"[rng.next_below(4)];
    seq.replace(rng.next_below(len - site.size()), site.size(), site);
    recs.push_back({name, seq});
  }
  const std::string base = genome::write_fasta(recs, 50);
  std::vector<util::usize> line_starts = {0};
  for (util::usize i = 0; i < base.size(); ++i) {
    if (base[i] == '\n') line_starts.push_back(i + 1);
  }

  std::vector<std::string> cases;
  for (util::usize k = 0; k + 1 < line_starts.size(); ++k) {
    cases.push_back(base.substr(0, line_starts[k]));
    cases.push_back(base.substr(0, (line_starts[k] + line_starts[k + 1]) / 2));
  }
  const std::string inserts[] = {">", ";", std::string(1, '\0'), "\r", "\t", "  "};
  for (int i = 0; i < 300; ++i) {
    std::string text = base;
    for (util::u64 e = 1 + rng.next_below(3); e > 0; --e) {
      if (rng.next_below(2) == 0) {
        text[rng.next_below(text.size())] = static_cast<char>(rng.next_below(256));
      } else {
        const util::usize at = rng.next_below(2) == 0
                                   ? rng.next_below(text.size() + 1)
                                   : line_starts[rng.next_below(line_starts.size())];
        text.insert(at, inserts[rng.next_below(std::size(inserts))]);
      }
    }
    cases.push_back(std::move(text));
  }

  const auto cfg = cof::parse_input(cof::example_input("<file>"));
  const cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 64};
  const std::string file = (dir.path / "mutated.fa").string();
  util::usize threw = 0;
  for (util::usize i = 0; i < cases.size(); ++i) {
    expect_matches_reference(cases[i], "case " + std::to_string(i));
    std::ofstream(file, std::ios::binary | std::ios::trunc) << cases[i];
    int throws = 0;
    std::optional<genome::genome_t> g;
    std::optional<genome::source_summary> sum;
    std::optional<cof::streamed_outcome> streamed;
    try {
      g = genome::load_genome(file);
    } catch (const genome::fasta_error&) {
      ++throws;
    }
    try {
      sum = genome::summarize_source(file);
    } catch (const genome::fasta_error&) {
      ++throws;
    }
    try {
      streamed = cof::run_search_streaming(cfg, file, opt);
    } catch (const genome::fasta_error&) {
      ++throws;
    }
    ASSERT_TRUE(throws == 0 || throws == 3) << "case " << i << ": " << throws
                                            << " of 3 readers threw";
    if (throws == 3) {
      ++threw;
      continue;
    }
    ASSERT_TRUE(sum.has_value()) << "case " << i;
    std::vector<std::string> names;
    for (const auto& c : g->chroms) names.push_back(c.name);
    EXPECT_EQ(sum->names, names) << "case " << i;
    EXPECT_EQ(sum->total_bases, g->total_bases()) << "case " << i;
    EXPECT_EQ(sum->hash, genome::content_hash(*g)) << "case " << i;
    EXPECT_EQ(streamed->chrom_names, names) << "case " << i;
    EXPECT_EQ(streamed->records, cof::run_search(cfg, *g, opt).records) << "case " << i;
  }
  // The loop reaches both outcomes.
  EXPECT_GT(threw, 0u);
  EXPECT_LT(threw, cases.size());
}

/// Lines of every length 0-100, whitespace-free and with isspace bytes
/// inside; then each of the six isspace bytes, NUL, a-z and 0x80-0xFF at
/// every offset of a whitespace-free 64-byte line.
TEST(FastaDecode, LineLengthsAndBytesMatchGetlineReference) {
  util::rng rng(2025);
  for (util::usize len = 0; len <= 100; ++len) {
    for (const bool spaces : {false, true}) {
      const std::string text = ">chr len\n" + random_line(rng, len, spaces) + "\n" +
                               random_line(rng, len, spaces) + "\n>chr2\n" +
                               random_line(rng, len, spaces) + "\n";
      expect_matches_reference(text, "len=" + std::to_string(len) +
                                         (spaces ? " with spaces" : " solid"));
    }
  }
  std::string bytes = " \t\n\v\f\r";
  bytes += '\0';
  for (char c = 'a'; c <= 'z'; ++c) bytes += c;
  for (int b = 0x80; b <= 0xff; ++b) bytes += static_cast<char>(b);
  const std::string line = random_line(rng, 64, false);
  for (const char b : bytes) {
    for (util::usize at = 0; at < line.size(); ++at) {
      std::string mutated = line;
      mutated[at] = b;
      expect_matches_reference(">chr\n" + mutated + "\nacgt\n",
                               "byte=" + std::to_string(static_cast<unsigned char>(b)) +
                                   " at=" + std::to_string(at));
    }
  }
}

/// CRLF line ends, a file with no final newline (after a sequence line, a
/// header or a space-only line), and lone CRs.
TEST(FastaDecode, LineEndsMatchGetlineReference) {
  util::rng rng(2026);
  const std::string a = random_line(rng, 100, false);
  const std::string b = random_line(rng, 40, false);
  const std::string crlf = ">a one\r\n" + a + "\r\n" + b + "\r\n\r\n>b\r\n" + a + "\r\n";
  temp_dir dir;
  const std::string file = (dir.path / "ends.fa").string();
  for (const std::string& text :
       {crlf, crlf.substr(0, crlf.size() - 2), crlf.substr(0, crlf.size() - 1),
        ">a\n" + a, ">a\n" + a + "\n>b", ">a\n" + a + "\n \t", ">a\r" + a + "\r\r\n" + b,
        std::string("\r\n>x\r\nACGT\r\n;c\r\n  \r\nac\r\n")}) {
    expect_matches_reference(text, "text of " + std::to_string(text.size()) + " bytes",
                             file);
  }
}

/// Lines that straddle a read of the source, from memory and from a file:
/// a sequence line, a header, a comment and a CRLF pair around the block
/// edge at several offsets; lines of exactly the block, one byte less and
/// one more; and lines of several blocks, the last without a newline.
TEST(FastaDecode, BlockEdgeLinesMatchGetlineReference) {
  constexpr util::usize kBlock = genome::fasta_stream::kBlockBytes;
  util::rng rng(2027);
  // `text` then a filler sequence line, so the next line starts at `at`.
  const auto pad_to = [&rng](std::string text, util::usize at) {
    text += random_line(rng, at - text.size() - 1, false) + "\n";
    return text;
  };
  temp_dir dir;
  const std::string file = (dir.path / "edge.fa").string();
  for (const util::usize k : {1, 2, 3, 31, 32, 33, 64, 65}) {
    const std::string where = "k=" + std::to_string(k);
    expect_matches_reference(
        pad_to(">a x\n", kBlock - k) + random_line(rng, 100, false) + "\nACGT\n",
        where + " sequence", file);
    expect_matches_reference(
        pad_to(">a x\n", kBlock - k) + random_line(rng, 100, true) + "\nACGT\n",
        where + " spaced sequence", file);
    expect_matches_reference(pad_to(">a\n", kBlock - k) + ">b desc\nacgt\n",
                             where + " header", file);
    expect_matches_reference(pad_to(">a\n", kBlock - k) + ";" +
                                 random_line(rng, 80, true) + "\nTT\n",
                             where + " comment", file);
    expect_matches_reference(pad_to(">a\n", kBlock - k) + random_line(rng, k - 1, false) +
                                 "\r\nGG\r\n",
                             where + " crlf", file);
  }
  expect_matches_reference(">a\n" + random_line(rng, kBlock - 1, false) + "\n" +
                               random_line(rng, kBlock, false) + "\n" +
                               random_line(rng, kBlock + 1, false) + "\n",
                           "block-sized lines", file);
  expect_matches_reference(">a\n" + random_line(rng, 2 * kBlock + kBlock / 2, false) +
                               "\n>b\n" + random_line(rng, 3 * kBlock + 7, true),
                           "multi-block lines", file);
}

}  // namespace
