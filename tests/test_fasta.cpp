// FASTA parser/writer tests, including directory loading, the byte and line
// rules every reader shares through fasta_stream, and hostile input failing
// with fasta_error.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "core/config.hpp"
#include "core/engine_stream.hpp"
#include "genome/fasta.hpp"
#include "genome/fasta_stream.hpp"
#include "genome/iupac.hpp"
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

struct temp_dir {
  fs::path path;
  temp_dir() {
    path = fs::temp_directory_path() / ("cof_fasta_test_" + std::to_string(::getpid()));
    fs::create_directories(path);
  }
  ~temp_dir() { fs::remove_all(path); }
};

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
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    line += c;
    if (c != ' ' && c != '\t' && c != '\n' && c != '\v' && c != '\f' && c != '\r') {
      want += genome::upper_base(c);
    }
  }
  line += "GT";
  want += "GT";
  ASSERT_EQ(want.size(), 2u + 250u + 2u);
  const std::string text = ">chr bytes\n" + line + "\n";

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
/// case either throws fasta_error from load_genome, summarize_source and
/// run_search_streaming alike, or all three agree: the summary carries the
/// loaded genome's names, base count and content_hash, and the streamed
/// records equal run_search on the loaded genome.
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

}  // namespace
