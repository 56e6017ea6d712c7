// Streaming-reader and streaming-search tests: the disk-chunked path must
// produce exactly the in-memory results with O(max_chunk) host memory.
#include <gtest/gtest.h>

#include "gtest_compat.hpp"

#include <filesystem>
#include <fstream>

#include "core/engine_stream.hpp"
#include "genome/chunker.hpp"
#include "genome/fasta.hpp"
#include "genome/fasta_stream.hpp"
#include "genome/synth.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;

struct temp_dir {
  fs::path path;
  temp_dir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cof_stream_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~temp_dir() { fs::remove_all(path); }
};

TEST(FastaStream, ReadsRecordsAndBlocks) {
  temp_dir dir;
  const auto file = dir.path / "s.fa";
  std::ofstream(file) << ">chr1 desc\nACGT\nacgt\n>chr2\nTTTT\n";
  genome::fasta_stream s(file.string());
  ASSERT_TRUE(s.next_record());
  EXPECT_EQ(s.record_name(), "chr1");
  std::string block;
  EXPECT_EQ(s.read_bases(block, 3), 3u);
  EXPECT_EQ(block, "ACG");
  EXPECT_EQ(s.read_bases(block, 100), 5u);  // rest of the record
  EXPECT_EQ(block, "ACGTACGT");
  EXPECT_EQ(s.read_bases(block, 10), 0u);  // exhausted
  ASSERT_TRUE(s.next_record());
  EXPECT_EQ(s.record_name(), "chr2");
  EXPECT_EQ(s.read_all(), "TTTT");
  EXPECT_FALSE(s.next_record());
}

TEST(FastaStream, SkipRecordWithoutReading) {
  temp_dir dir;
  const auto file = dir.path / "s.fa";
  std::ofstream(file) << ">a\nAAAA\nCCCC\n>b\nGG\n";
  genome::fasta_stream s(file.string());
  ASSERT_TRUE(s.next_record());
  ASSERT_TRUE(s.next_record());  // skip a's data entirely
  EXPECT_EQ(s.record_name(), "b");
  EXPECT_EQ(s.read_all(), "GG");
}

TEST(FastaStream, HandlesCommentsBlanksAndCrlf) {
  temp_dir dir;
  const auto file = dir.path / "s.fa";
  std::ofstream(file) << "; comment\r\n\r\n>x\r\nAC\r\n; mid\r\nGT\r\n";
  genome::fasta_stream s(file.string());
  ASSERT_TRUE(s.next_record());
  EXPECT_EQ(s.read_all(), "ACGT");
}

TEST(FastaStream, AgreesWithInMemoryParserOnRandomFiles) {
  util::rng rng(71);
  temp_dir dir;
  for (int trial = 0; trial < 10; ++trial) {
    // Random records with random line widths.
    std::vector<genome::chromosome> recs;
    const auto nrecs = 1 + rng.next_below(4);
    for (util::u64 r = 0; r < nrecs; ++r) {
      genome::chromosome c;
      c.name = "r";
      c.name += std::to_string(r);
      const auto len = rng.next_below(5000);
      for (util::u64 i = 0; i < len; ++i) c.seq += "ACGTN"[rng.next_below(5)];
      recs.push_back(std::move(c));
    }
    const auto file = dir.path / ("t" + std::to_string(trial) + ".fa");
    genome::write_fasta_file(file.string(), recs, 1 + rng.next_below(100));

    genome::fasta_stream s(file.string());
    for (const auto& expect : recs) {
      ASSERT_TRUE(s.next_record());
      EXPECT_EQ(s.record_name(), expect.name);
      // Drain in randomly sized blocks.
      std::string got;
      while (s.read_bases(got, 1 + rng.next_below(700)) != 0) {
      }
      EXPECT_EQ(got, expect.seq);
    }
    EXPECT_FALSE(s.next_record());
  }
}

TEST(FastaStream, MissingFileThrows) {
  EXPECT_THROW(genome::fasta_stream("/no/such.fa"), genome::fasta_error);
}

TEST(FastaFilesAt, SingleFileAndDirectory) {
  temp_dir dir;
  std::ofstream(dir.path / "b.fa") << ">b\nA\n";
  std::ofstream(dir.path / "a.fasta") << ">a\nC\n";
  std::ofstream(dir.path / "no.txt") << "x";
  const auto files = genome::fasta_files_at(dir.path.string());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].find("a.fasta"), std::string::npos);
  const auto single = genome::fasta_files_at((dir.path / "b.fa").string());
  ASSERT_EQ(single.size(), 1u);
}

// --- streaming search --------------------------------------------------------

genome::genome_t stream_genome(util::u64 seed) {
  genome::synth_params p;
  p.assembly = "stream-test";
  p.chromosomes = {{"chrA", 40000}, {"chrB", 15000}};
  p.seed = seed;
  return genome::generate(p);
}

TEST(StreamingSearch, MatchesInMemorySearch) {
  temp_dir dir;
  auto g = stream_genome(61);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 5, 1, 99);
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);

  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 7000};
  const auto mem = cof::run_search(cfg, g, opt);
  const auto streamed = cof::run_search_streaming(cfg, file.string(), opt);
  EXPECT_EQ(streamed.records, mem.records);
  ASSERT_EQ(streamed.chrom_names.size(), 2u);
  EXPECT_EQ(streamed.chrom_names[0], "chrA");
  EXPECT_EQ(streamed.streamed_bases, g.total_bases());
  EXPECT_LE(streamed.peak_chunk_bytes, 7000u);
}

// An indented '>' starts a new record on the streamed path as it does in
// memory, so every streamed record names the chromosome it lies on.
TEST(StreamingSearch, IndentedHeadersMatchInMemorySearch) {
  temp_dir dir;
  auto g = stream_genome(63);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 12, 1, 64);
  const std::string plain = genome::write_fasta(g.chroms);
  // Indent the second header, behind an indented comment line.
  const auto second = plain.find("\n>") + 1;
  const std::string text =
      plain.substr(0, second) + "  ; indented comment\n \t" + plain.substr(second);
  const auto file = dir.path / "indented.fa";
  std::ofstream(file, std::ios::binary) << text;

  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 7000};
  const auto mem = cof::run_search(cfg, genome::load_genome(file.string()), opt);
  const auto streamed = cof::run_search_streaming(cfg, file.string(), opt);
  bool on_second = false;  // a record after the indented header
  for (const auto& r : mem.records) on_second |= r.chrom_index == 1;
  ASSERT_TRUE(on_second);
  EXPECT_EQ(streamed.records, mem.records);
  EXPECT_EQ(streamed.chrom_names, (std::vector<std::string>{"chrA", "chrB"}));
  EXPECT_EQ(streamed.streamed_bases, g.total_bases());
}

TEST(StreamingSearch, DirectoryInput) {
  temp_dir dir;
  auto g = stream_genome(62);
  genome::write_fasta_file((dir.path / "a_chrA.fa").string(), {g.chroms[0]});
  genome::write_fasta_file((dir.path / "b_chrB.fa").string(), {g.chroms[1]});
  auto cfg = cof::parse_input(cof::example_input("<dir>"));
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto mem = cof::run_search(cfg, g, opt);
  const auto streamed = cof::run_search_streaming(cfg, dir.path.string(), opt);
  EXPECT_EQ(streamed.records, mem.records);
}

class StreamChunking : public ::testing::TestWithParam<util::usize> {};

TEST_P(StreamChunking, ChunkSizeInvariant) {
  temp_dir dir;
  auto g = stream_genome(63);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);
  const auto reference =
      cof::run_search(cfg, g, {.backend = cof::backend_kind::serial});
  cof::engine_options opt{.backend = cof::backend_kind::sycl,
                          .max_chunk = GetParam()};
  const auto streamed = cof::run_search_streaming(cfg, file.string(), opt);
  EXPECT_EQ(streamed.records, reference.records) << "chunk " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Chunks, StreamChunking,
                         ::testing::Values(512u, 1777u, 8192u, 100000u));

TEST(StreamingSearch, SiteAtExactChunkBoundary) {
  temp_dir dir;
  genome::genome_t g;
  g.chroms.push_back({"chr", std::string(4000, 'T')});
  const std::string site = "GGCCGACCTGTCGCTGACGCTGG";
  const util::usize chunk_size = 1000;
  g.chroms[0].seq.replace(chunk_size - 5, site.size(), site);  // straddles
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const auto streamed = cof::run_search_streaming(
      cfg, file.string(),
      {.backend = cof::backend_kind::sycl, .max_chunk = chunk_size});
  bool found = false;
  for (const auto& rec : streamed.records) {
    found |= rec.query_index == 0 && rec.position == chunk_size - 5 &&
             rec.mismatches == 0;
  }
  EXPECT_TRUE(found);
}

TEST(StreamingSearchDeath, SerialBackendRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto cfg = cof::parse_input(cof::example_input("<x>"));
  EXPECT_DEATH((void)cof::run_search_streaming(
                   cfg, "/tmp", {.backend = cof::backend_kind::serial}),
               "serial");
}

}  // namespace

// -- appended: streaming-vs-memory differential fuzz --------------------------

namespace {

class StreamFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StreamFuzz, StreamedEqualsInMemoryOnRandomFiles) {
  util::rng rng(3000 + static_cast<util::u64>(GetParam()));
  temp_dir dir;
  // Random multi-record genome with gaps, random wrap width, random chunking.
  genome::genome_t g;
  const auto nrecs = 1 + rng.next_below(4);
  for (util::u64 rix = 0; rix < nrecs; ++rix) {
    genome::chromosome c;
    c.name = "f" + std::to_string(rix);
    const auto len = 100 + rng.next_below(20000);
    for (util::u64 i = 0; i < len; ++i) {
      c.seq += rng.next_bool(0.02) ? 'N' : "ACGT"[rng.next_below(4)];
    }
    g.chroms.push_back(std::move(c));
  }
  const auto file = dir.path / "fuzz.fa";
  genome::write_fasta_file(file.string(), g.chroms, 1 + rng.next_below(120));

  auto cfg = cof::parse_input(cof::example_input("<fuzz>"));
  cof::engine_options opt{.backend = cof::backend_kind::sycl,
                          .max_chunk = 600 + rng.next_below(30000)};
  const auto mem = cof::run_search(cfg, g, opt);
  const auto streamed = cof::run_search_streaming(cfg, file.string(), opt);
  ASSERT_EQ(streamed.records, mem.records)
      << "seed=" << GetParam() << " chunk=" << opt.max_chunk;
  EXPECT_EQ(streamed.streamed_bases, g.total_bases());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFuzz, ::testing::Range(1, 9));

}  // namespace

// -- appended: async two-deep pipeline ----------------------------------------

namespace {

/// The runner's two comparer shapes (opt6's one batched launch per chunk
/// with a deferred download, or base's per-query launches) must be
/// bit-identical, including chrom bookkeeping and chunk-boundary overlap
/// sites, and both must match the in-memory search.
TEST(StreamingAsync, BatchedMatchesPerQueryLaunches) {
  temp_dir dir;
  auto g = stream_genome(64);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 7, 2, 17);
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);

  cof::engine_options batched_opt{.backend = cof::backend_kind::sycl,
                                  .max_chunk = 7000};
  cof::engine_options per_query_opt = batched_opt;
  per_query_opt.variant = cof::comparer_variant::base;

  const auto a = cof::run_search_streaming(cfg, file.string(), batched_opt);
  const auto s = cof::run_search_streaming(cfg, file.string(), per_query_opt);
  EXPECT_EQ(a.records, s.records);
  EXPECT_EQ(a.records, cof::run_search(cfg, g, batched_opt).records);
  EXPECT_EQ(a.chrom_names, s.chrom_names);
  EXPECT_EQ(a.streamed_bases, s.streamed_bases);
  EXPECT_EQ(a.metrics.chunks, s.metrics.chunks);
  EXPECT_EQ(a.peak_chunk_bytes, s.peak_chunk_bytes);
}

/// Per-chunk comparer launches drop from num_queries to exactly 1 under
/// opt6: for every chunk with finder hits, base launches once per query,
/// opt6 once total.
TEST(StreamingAsync, SingleBatchedComparerLaunchPerChunk) {
  temp_dir dir;
  auto g = stream_genome(65);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  ASSERT_EQ(cfg.queries.size(), 3u);
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);

  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 6000};
  const auto a = cof::run_search_streaming(cfg, file.string(), opt);
  opt.variant = cof::comparer_variant::base;
  const auto s = cof::run_search_streaming(cfg, file.string(), opt);

  // Both variants chunk identically, so chunks-with-hits agree; opt6's
  // count is one launch per such chunk, base's num_queries.
  EXPECT_EQ(a.metrics.pipeline.comparer_launches * cfg.queries.size(),
            s.metrics.pipeline.comparer_launches);
  EXPECT_LE(a.metrics.pipeline.comparer_launches, a.metrics.chunks);
  EXPECT_EQ(a.metrics.pipeline.finder_launches, s.metrics.pipeline.finder_launches);
  EXPECT_EQ(a.records, s.records);
}

/// Every device backend must produce the serial reference's records through
/// the streamed path (exercises the batched launch/fetch protocol of each
/// facade: buffer SYCL, USM, OpenCL, and the 2-bit facade's opt6 path).
class StreamBackends : public ::testing::TestWithParam<cof::backend_kind> {};

TEST_P(StreamBackends, AsyncStreamedMatchesSerialReference) {
  temp_dir dir;
  auto g = stream_genome(66);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const std::string guide = cfg.queries[1].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 4, 1, 23);
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);

  const auto reference =
      cof::run_search(cfg, g, {.backend = cof::backend_kind::serial});
  cof::engine_options opt{.backend = GetParam(), .max_chunk = 9000};
  const auto streamed = cof::run_search_streaming(cfg, file.string(), opt);
  EXPECT_EQ(streamed.records, reference.records);
}

INSTANTIATE_TEST_SUITE_P(Backends, StreamBackends,
                         ::testing::Values(cof::backend_kind::opencl,
                                           cof::backend_kind::sycl,
                                           cof::backend_kind::sycl_usm,
                                           cof::backend_kind::sycl_twobit));

/// Chunk-boundary site straddling a chunk edge must survive the streamed
/// overlap carry (same planted-site setup as the in-memory boundary test).
TEST(StreamingAsync, SiteAtExactChunkBoundary) {
  temp_dir dir;
  genome::genome_t g;
  g.chroms.push_back({"chr", std::string(4000, 'T')});
  const std::string site = "GGCCGACCTGTCGCTGACGCTGG";
  const util::usize chunk_size = 1000;
  g.chroms[0].seq.replace(chunk_size - 5, site.size(), site);  // straddles
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  cof::engine_options opt{.backend = cof::backend_kind::sycl,
                          .max_chunk = chunk_size};
  const auto streamed = cof::run_search_streaming(cfg, file.string(), opt);
  bool found = false;
  for (const auto& rec : streamed.records) {
    found |= rec.query_index == 0 && rec.position == chunk_size - 5 &&
             rec.mismatches == 0;
  }
  EXPECT_TRUE(found);
}

}  // namespace

// -- appended: chunk-boundary regression, overflow guard, multi-queue ---------

namespace {

/// Regression: a record whose length is exactly max_chunk plus a whole
/// number of strides (stride = max_chunk - overlap) hits EOF exactly on a
/// chunk boundary. The streaming reader used to emit the carried overlap as
/// a degenerate trailing chunk — bases already scanned as the tail of the
/// previous chunk — inflating metrics.chunks past the in-memory chunker's
/// count. The FASTA source must match genome::make_chunks exactly, in both
/// launch modes.
class StreamBoundary : public ::testing::TestWithParam<cof::backend_kind> {};

TEST_P(StreamBoundary, ExactMultipleRecordHasNoCarryOnlyChunk) {
  temp_dir dir;
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const util::usize chunk_size = 1000;
  const util::usize overlap = cfg.pattern.size() - 1;
  // One full chunk plus one full stride: EOF lands exactly where the second
  // chunk ends, leaving only the carried overlap behind.
  const util::usize len = chunk_size + (chunk_size - overlap);
  util::rng rng(991);
  genome::genome_t g;
  genome::chromosome c;
  c.name = "exact";
  for (util::usize i = 0; i < len; ++i) c.seq += "ACGT"[rng.next_below(4)];
  g.chroms.push_back(std::move(c));
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);

  const auto chunks = genome::make_chunks(g, chunk_size, overlap);
  ASSERT_EQ(chunks.size(), 2u);  // the in-memory chunker's (correct) count

  const auto mem =
      cof::run_search(cfg, g, {.backend = cof::backend_kind::serial});
  for (const auto variant : {cof::comparer_variant::base, cof::comparer_variant::opt6}) {
    const cof::engine_options opt{
        .backend = GetParam(), .variant = variant, .max_chunk = chunk_size};
    const auto streamed = cof::run_search_streaming(cfg, file.string(), opt);
    const char* v = cof::comparer_variant_name(variant);
    EXPECT_EQ(streamed.metrics.chunks, chunks.size()) << v;
    EXPECT_EQ(streamed.streamed_bases, len) << v;
    EXPECT_EQ(streamed.records, mem.records) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, StreamBoundary,
                         ::testing::Values(cof::backend_kind::opencl,
                                           cof::backend_kind::sycl,
                                           cof::backend_kind::sycl_usm,
                                           cof::backend_kind::sycl_twobit));

/// An entry buffer sized below the hit count overflows; the kernel counter
/// keeps advancing past the capacity (only stores are dropped), so the host
/// learns the true demand. The engine RECOVERS: the chunk is retried with a
/// grown allocation and the results must be byte-identical to worst-case
/// sizing.
class StreamOverflow : public ::testing::TestWithParam<cof::backend_kind> {};

TEST_P(StreamOverflow, UndersizedEntryBufferRecovers) {
  temp_dir dir;
  auto g = stream_genome(67);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);
  cof::engine_options opt{.backend = GetParam(), .max_chunk = 9000};
  const auto worst = cof::run_search_streaming(cfg, file.string(), opt);
  opt.max_entries = 2;  // far below the PAM hit count of a 55 kb random genome
  const auto capped = cof::run_search_streaming(cfg, file.string(), opt);
  EXPECT_EQ(capped.records, worst.records);
  EXPECT_GE(capped.metrics.recovery.overflow_retries, 1u);
  EXPECT_GE(capped.metrics.recovery.recovered_overflows, 1u);
  EXPECT_EQ(worst.metrics.recovery.overflow_retries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, StreamOverflow,
                         ::testing::Values(cof::backend_kind::opencl,
                                           cof::backend_kind::sycl,
                                           cof::backend_kind::sycl_usm,
                                           cof::backend_kind::sycl_twobit));

/// The in-memory entry point runs the same runner, so it recovers the same
/// way: identical records to worst-case sizing, with both comparer shapes.
TEST_P(StreamOverflow, RunSearchUndersizedEntryBufferRecovers) {
  auto g = stream_genome(69);
  auto cfg = cof::parse_input(cof::example_input("<synth>"));
  for (const auto variant : {cof::comparer_variant::base, cof::comparer_variant::opt6}) {
    cof::engine_options opt{.backend = GetParam(), .variant = variant, .max_chunk = 9000};
    const auto worst = cof::run_search(cfg, g, opt);
    opt.max_entries = 2;
    const auto capped = cof::run_search(cfg, g, opt);
    EXPECT_EQ(capped.records, worst.records) << cof::comparer_variant_name(variant);
    EXPECT_GE(capped.metrics.recovery.overflow_retries, 1u);
    EXPECT_GE(capped.metrics.recovery.recovered_overflows, 1u);
  }
}

/// A max_entries cap that is merely generous (above the actual hit count but
/// below worst-case sizing) must change nothing about the results.
TEST(StreamOverflow, GenerousCapMatchesWorstCaseSizing) {
  temp_dir dir;
  auto g = stream_genome(67);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto worst = cof::run_search_streaming(cfg, file.string(), opt);
  opt.max_entries = util::usize{1} << 20;
  const auto capped = cof::run_search_streaming(cfg, file.string(), opt);
  EXPECT_EQ(capped.records, worst.records);
}

/// Multi-queue streaming: chunks fan out over the bounded queue to
/// num_queues device pipelines, records spill per queue and k-way merge back
/// — the output must be byte-identical to num_queues == 1 and to the
/// in-memory search for any queue count and interleaving.
class StreamMultiQueue : public ::testing::TestWithParam<util::usize> {};

TEST_P(StreamMultiQueue, ByteIdenticalForAnyQueueCount) {
  temp_dir dir;
  auto g = stream_genome(68);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 6, 2, 31);
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);

  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 5000};
  const auto mem = cof::run_search(cfg, g, opt);
  opt.num_queues = GetParam();
  const auto streamed = cof::run_search_streaming(cfg, file.string(), opt);

  EXPECT_EQ(streamed.records, mem.records);
  std::vector<std::string> names;
  for (const auto& c : g.chroms) names.push_back(c.name);
  EXPECT_EQ(streamed.chrom_names, names);
  EXPECT_EQ(streamed.metrics.chunks,
            genome::make_chunks(g, opt.max_chunk, cfg.pattern.size() - 1).size());
  ASSERT_EQ(streamed.metrics.per_queue.size(), GetParam());
  EXPECT_EQ(streamed.total_records, streamed.records.size());
  EXPECT_GE(streamed.spill_runs, 1u);
  ASSERT_FALSE(streamed.records.empty());
  // Bounded-memory accounting: the runner holds at most one formatted batch
  // per queue at a time, so its peak must undercut the whole record set.
  util::usize total_record_bytes = 0;
  for (const auto& r : streamed.records) {
    total_record_bytes += sizeof(cof::ot_record) + r.site.size();
  }
  EXPECT_GT(streamed.peak_record_bytes, 0u);
  EXPECT_LT(streamed.peak_record_bytes, total_record_bytes);
}

INSTANTIATE_TEST_SUITE_P(Queues, StreamMultiQueue,
                         ::testing::Values(util::usize{1}, util::usize{2},
                                           util::usize{4}));

/// The record_sink overload streams each canonical record exactly once and
/// leaves outcome.records empty — output never accumulates in host memory.
TEST(StreamingSearch, RecordSinkReceivesCanonicalRecords) {
  temp_dir dir;
  auto g = stream_genome(70);
  auto cfg = cof::parse_input(cof::example_input("<file>"));
  const std::string guide = cfg.queries[2].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 5, 1, 43);
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);

  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 6000};
  const auto mem = cof::run_search(cfg, g, opt);

  opt.num_queues = 2;
  std::vector<cof::ot_record> sunk;
  const auto streamed = cof::run_search_streaming(
      cfg, file.string(), opt,
      [&sunk](cof::ot_record&& r) { sunk.push_back(std::move(r)); });
  EXPECT_TRUE(streamed.records.empty());
  EXPECT_EQ(streamed.total_records, sunk.size());
  EXPECT_EQ(sunk, mem.records);

  opt.variant = cof::comparer_variant::base;
  opt.num_queues = 1;
  std::vector<cof::ot_record> sunk_per_query;
  const auto s = cof::run_search_streaming(
      cfg, file.string(), opt, [&sunk_per_query](cof::ot_record&& r) {
        sunk_per_query.push_back(std::move(r));
      });
  EXPECT_TRUE(s.records.empty());
  EXPECT_EQ(sunk_per_query, mem.records);
}

}  // namespace
