// End-to-end engine tests: configured-genome loading, serial reference
// behaviour, record content, full-text output, and the argument errors
// every entry point reports.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/engine_stream.hpp"
#include "genome/synth.hpp"

namespace {

using namespace cof;

TEST(Engine, LoadGenomeSynthUri) {
  auto g = genome::load_genome("synth:hg19:32768");
  EXPECT_EQ(g.assembly, "hg19-synth");
  EXPECT_GT(g.total_bases(), 0u);
}

TEST(Engine, SerialFindsHandConstructedSites) {
  // A fully controlled genome: background of T's (never matches the PAM
  // NRG: needs R=A/G then G), with known sites written in.
  genome::genome_t g;
  g.chroms.push_back({"chr1", std::string(500, 'T')});
  g.chroms.push_back({"chr2", std::string(300, 'T')});
  const std::string query = "GGCCGACCTGTCGCTGACGCNNN";
  const std::string exact = "GGCCGACCTGTCGCTGACGCTGG";  // 0 mismatches, PAM TGG
  std::string two_mm = exact;
  two_mm[0] = 'T';
  two_mm[5] = 'C';  // G->T, A->C: 2 mismatches
  g.chroms[0].seq.replace(100, exact.size(), exact);
  g.chroms[1].seq.replace(50, two_mm.size(), two_mm);
  // Reverse-strand site on chr1: write rc(exact).
  g.chroms[0].seq.replace(300, exact.size(), genome::reverse_complement(exact));

  search_config cfg;
  cfg.genome_path = "<mem>";
  cfg.pattern = "NNNNNNNNNNNNNNNNNNNNNRG";
  cfg.queries = {{query, 5}};
  auto r = run_search(cfg, g, {.backend = backend_kind::serial});

  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].chrom_index, 0u);
  EXPECT_EQ(r.records[0].position, 100u);
  EXPECT_EQ(r.records[0].direction, '+');
  EXPECT_EQ(r.records[0].mismatches, 0);
  EXPECT_EQ(r.records[0].site, exact);

  EXPECT_EQ(r.records[1].position, 300u);
  EXPECT_EQ(r.records[1].direction, '-');
  EXPECT_EQ(r.records[1].mismatches, 0);
  EXPECT_EQ(r.records[1].site, exact);  // rendered strand-oriented

  EXPECT_EQ(r.records[2].chrom_index, 1u);
  EXPECT_EQ(r.records[2].mismatches, 2);
  EXPECT_EQ(r.records[2].site, "tGCCGcCCTGTCGCTGACGCTGG");
}

TEST(Engine, MismatchThresholdExcludes) {
  genome::genome_t g;
  g.chroms.push_back({"chr", std::string(200, 'T')});
  std::string site = "GGCCGACCTGTCGCTGACGCTGG";
  site[0] = 'A';
  site[1] = 'A';
  site[2] = 'A';  // 3 mismatches vs query0
  g.chroms[0].seq.replace(60, site.size(), site);
  search_config cfg;
  cfg.genome_path = "<mem>";
  cfg.pattern = "NNNNNNNNNNNNNNNNNNNNNRG";
  cfg.queries = {{"GGCCGACCTGTCGCTGACGCNNN", 2}};
  auto r2 = run_search(cfg, g, {.backend = backend_kind::serial});
  EXPECT_TRUE(r2.records.empty());
  cfg.queries[0].max_mismatches = 3;
  auto r3 = run_search(cfg, g, {.backend = backend_kind::serial});
  ASSERT_EQ(r3.records.size(), 1u);
  EXPECT_EQ(r3.records[0].mismatches, 3);
}

TEST(Engine, MultipleQueriesIndexedIndependently) {
  genome::genome_t g;
  g.chroms.push_back({"chr", std::string(400, 'T')});
  const std::string siteA = "GGCCGACCTGTCGCTGACGCTGG";  // exact for query 0
  const std::string siteB = "CGCCAGCGTCAGCGACAGGTAGG";  // exact for query 1
  g.chroms[0].seq.replace(50, siteA.size(), siteA);
  g.chroms[0].seq.replace(200, siteB.size(), siteB);
  auto cfg = parse_input(example_input("<mem>"));
  for (auto& q : cfg.queries) q.max_mismatches = 0;
  auto r = run_search(cfg, g, {.backend = backend_kind::serial});
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].query_index, 0u);
  EXPECT_EQ(r.records[0].position, 50u);
  EXPECT_EQ(r.records[1].query_index, 1u);
  EXPECT_EQ(r.records[1].position, 200u);
}

TEST(Engine, PalindromicSiteReportsBothStrands) {
  // A site whose forward text matches the PAM on both strands.
  genome::genome_t g;
  g.chroms.push_back({"chr", std::string(100, 'T')});
  // pattern NGG fw needs GG at 1,2; rc(NGG)=CCN needs CC at 0,1.
  g.chroms[0].seq.replace(40, 4, "CCGG");  // pos 40: "CCG" rc-hit; pos 41: "CGG" fw-hit
  search_config cfg;
  cfg.genome_path = "<mem>";
  cfg.pattern = "NGG";
  cfg.queries = {{"NNN", 0}};
  auto r = run_search(cfg, g, {.backend = backend_kind::serial});
  // With an all-N query every PAM site reports; check strand bookkeeping.
  bool fw = false, rc = false;
  for (const auto& rec : r.records) {
    if (rec.direction == '+') fw = true;
    if (rec.direction == '-') rc = true;
  }
  EXPECT_TRUE(fw);
  EXPECT_TRUE(rc);
}

TEST(Engine, FormatIntegration) {
  genome::genome_t g;
  g.chroms.push_back({"chr7", std::string(120, 'T')});
  const std::string site = "GGCCGACCTGTCGCTGACGCTGG";
  g.chroms[0].seq.replace(33, site.size(), site);
  auto cfg = parse_input(example_input("<mem>"));
  auto r = run_search(cfg, g, {.backend = backend_kind::serial});
  std::vector<std::string> qseqs;
  for (const auto& q : cfg.queries) qseqs.push_back(q.seq);
  const auto text = format_records(r.records, qseqs, g);
  EXPECT_NE(text.find("GGCCGACCTGTCGCTGACGCNNN\tchr7\t33\t"), std::string::npos);
  EXPECT_NE(text.find("\t+\t0\n"), std::string::npos);
}

TEST(Engine, BackendNames) {
  EXPECT_STREQ(backend_name(backend_kind::serial), "serial");
  EXPECT_STREQ(backend_name(backend_kind::opencl), "opencl");
  EXPECT_STREQ(backend_name(backend_kind::sycl), "sycl");
}

TEST(Engine, EmptyGenomeChromosome) {
  genome::genome_t g;
  g.chroms.push_back({"empty", ""});
  g.chroms.push_back({"ok", std::string(100, 'T')});
  auto cfg = parse_input(example_input("<mem>"));
  for (auto backend : {backend_kind::serial, backend_kind::sycl}) {
    auto r = run_search(cfg, g, {.backend = backend});
    EXPECT_TRUE(r.records.empty());
  }
}

// A guide of the wrong length or with a non-IUPAC character, and a chunk no
// longer than the pattern's overlap, throw config_error before any source
// is opened: on the in-memory device and serial paths, and on the streamed
// path, whose FASTA is never read.
TEST(EngineErrors, HostileArgumentsThrowConfigError) {
  genome::genome_t g;
  g.chroms.push_back({"chr1", std::string(500, 'T')});
  const search_config cfg = parse_input(example_input("<mem>"));
  search_config short_guide = cfg;
  short_guide.queries = {{"ACGT", 2}};
  search_config bad_char = cfg;
  bad_char.queries = {{"GGCCGACCTGTCGCTGACGCNNZ", 3}};
  for (const search_config& bad : {short_guide, bad_char}) {
    for (const auto backend : {backend_kind::serial, backend_kind::sycl}) {
      EXPECT_THROW((void)run_search(bad, g, {.backend = backend}), config_error)
          << bad.queries[0].seq << " " << backend_name(backend);
    }
    EXPECT_THROW((void)run_search_streaming(bad, "missing.fa", {}), config_error)
        << bad.queries[0].seq;
  }
  const engine_options tiny_chunk{.backend = backend_kind::sycl, .max_chunk = 10};
  EXPECT_THROW((void)run_search(cfg, g, tiny_chunk), config_error);
  EXPECT_THROW((void)run_search_streaming(cfg, "missing.fa", tiny_chunk), config_error);
}

}  // namespace
