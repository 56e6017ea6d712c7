// Result-record ordering, dedup, site-string rendering, output format, and
// the spill runs: merge_spill_runs over any set of spilled batches equals
// sort_and_dedup over their union, and a spill file it cannot read throws.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <random>

#include "core/results.hpp"

namespace {

using cof::ot_record;
using util::u16;
using util::u32;
using util::u64;
using util::usize;

TEST(Results, SortOrder) {
  std::vector<ot_record> r{
      {1, 0, 10, '+', 0, "A"}, {0, 1, 5, '+', 0, "B"}, {0, 0, 20, '-', 0, "C"},
      {0, 0, 20, '+', 0, "D"}, {0, 0, 5, '+', 0, "E"},
  };
  cof::sort_records(r);
  EXPECT_EQ(r[0].site, "E");
  EXPECT_EQ(r[1].site, "D");  // '+' < '-' in ASCII
  EXPECT_EQ(r[2].site, "C");
  EXPECT_EQ(r[3].site, "B");
  EXPECT_EQ(r[4].site, "A");
}

TEST(Results, DedupRemovesChunkOverlapDuplicates) {
  std::vector<ot_record> r{
      {0, 0, 10, '+', 2, "AA"}, {0, 0, 10, '+', 2, "AA"}, {0, 0, 10, '-', 2, "AA"},
      {1, 0, 10, '+', 2, "AA"},
  };
  cof::sort_and_dedup(r);
  EXPECT_EQ(r.size(), 3u);  // same (query,chrom,pos,dir) collapsed
}

TEST(SiteString, ForwardLowercasesMismatches) {
  // query AC GT vs ref AGGT: mismatch at position 1 only.
  EXPECT_EQ(cof::make_site_string("ACGT", "AGGT", '+'), "AgGT");
}

TEST(SiteString, NInQueryNeverLowercases) {
  EXPECT_EQ(cof::make_site_string("NNGT", "CAGT", '+'), "CAGT");
}

TEST(SiteString, RefNLowercasedAgainstConcreteQuery) {
  EXPECT_EQ(cof::make_site_string("ACGT", "ACGN", '+'), "ACGn");
}

TEST(SiteString, ReverseStrandIsReverseComplement) {
  // ref slice GGTC; '-' direction renders rc(GGTC) = GACC; query GACC -> no
  // mismatches.
  EXPECT_EQ(cof::make_site_string("GACC", "GGTC", '-'), "GACC");
}

TEST(SiteString, ReverseStrandMismatchLowercased) {
  // rc(AGTC) = GACT; query GACC mismatches at position 3 (C vs T).
  EXPECT_EQ(cof::make_site_string("GACC", "AGTC", '-'), "GACt");
}

TEST(SiteString, MismatchCountMatchesLowercaseCount) {
  const std::string query = "ACGTACGTAC";
  const std::string ref = "ACCTACGAAC";  // mismatches at 2 and 7
  auto site = cof::make_site_string(query, ref, '+');
  int lower = 0;
  for (char c : site) lower += (c >= 'a' && c <= 'z');
  EXPECT_EQ(lower, 2);
}

TEST(Results, FormatUpstreamLayout) {
  genome::genome_t g;
  g.chroms = {{"chr1", ""}, {"chr2", ""}};
  std::vector<ot_record> r{{0, 1, 12345, '-', 3, "ACgTa"}};
  const auto text = cof::format_records(r, {"QUERYSEQ"}, g);
  EXPECT_EQ(text, "QUERYSEQ\tchr2\t12345\tACgTa\t-\t3\n");
}

TEST(Results, FormatMultipleRecords) {
  genome::genome_t g;
  g.chroms = {{"chrX", ""}};
  std::vector<ot_record> r{{0, 0, 1, '+', 0, "AA"}, {1, 0, 2, '-', 1, "CC"}};
  const auto text = cof::format_records(r, {"Q1", "Q2"}, g);
  EXPECT_EQ(text, "Q1\tchrX\t1\tAA\t+\t0\nQ2\tchrX\t2\tCC\t-\t1\n");
}

// ---------------------------------------------------------------------------
// Spill runs
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

struct temp_dir {
  fs::path path;
  temp_dir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cof_results_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~temp_dir() { fs::remove_all(path); }
  std::string file(const std::string& name) const { return (path / name).string(); }
};

/// A record whose payload is a function of its key, as the engine's are:
/// duplicate keys (chunk-overlap re-scans) carry byte-identical payloads.
/// Sites are 20-64 bases long unless `site_len` says otherwise.
ot_record keyed_record(u32 query, u32 chrom, u64 pos, char dir, usize site_len = 0) {
  if (site_len == 0) site_len = 20 + (pos + query) % 45;
  ot_record r{query, chrom, pos, dir, static_cast<u16>((pos * 7 + query) % 9), {}};
  for (usize k = 0; k < site_len; ++k) r.site += "ACGTacgt"[(pos + 3 * k + query) % 8];
  return r;
}

/// `n` records with keys drawn from 3 queries x 2 chromosomes x `positions`
/// x 2 strands, so a small position range repeats keys.
std::vector<ot_record> random_batch(std::mt19937_64& rng, usize n, u64 positions) {
  std::vector<ot_record> batch;
  for (usize i = 0; i < n; ++i) {
    const u32 query = static_cast<u32>(rng() % 3);
    const u32 chrom = static_cast<u32>(rng() % 2);
    const u64 pos = rng() % positions;
    batch.push_back(keyed_record(query, chrom, pos, rng() % 2 != 0 ? '+' : '-'));
  }
  return batch;
}

using spill_plan = std::vector<std::vector<std::vector<ot_record>>>;

/// Spill `plan[f]`'s batches through writer f, merge every writer's file,
/// and check the output against sort_and_dedup over the union of the
/// batches. Returns the union's size before dedup.
usize expect_merge_matches_dedup(const spill_plan& plan) {
  temp_dir dir;
  std::vector<ot_record> expected;
  std::vector<std::unique_ptr<cof::record_spill_writer>> writers;
  std::vector<std::string> paths;
  usize runs = 0;
  for (usize f = 0; f < plan.size(); ++f) {
    writers.push_back(std::make_unique<cof::record_spill_writer>(
        dir.file("w" + std::to_string(f) + ".run")));
    for (std::vector<ot_record> batch : plan[f]) {
      expected.insert(expected.end(), batch.begin(), batch.end());
      runs += batch.empty() ? 0 : 1;
      writers.back()->spill(batch);
      EXPECT_TRUE(batch.empty());
    }
    writers.back()->finish();
    paths.push_back(writers.back()->path());
  }
  usize spilled_runs = 0;
  for (const auto& w : writers) spilled_runs += w->runs();
  EXPECT_EQ(spilled_runs, runs) << "an empty batch must not become a run";

  const usize spilled = expected.size();
  cof::sort_and_dedup(expected);
  std::vector<ot_record> merged;
  const u64 emitted = cof::merge_spill_runs(
      paths, [&merged](ot_record&& r) { merged.push_back(std::move(r)); });
  EXPECT_EQ(emitted, merged.size());
  EXPECT_EQ(merged, expected);
  return spilled;
}

TEST(SpillMerge, OneFileOfThreeHundredRuns) {
  std::mt19937_64 rng(11);
  spill_plan plan(1);
  for (int run = 0; run < 300; ++run) {
    plan[0].push_back(random_batch(rng, 1 + rng() % 40, 4000));
  }
  expect_merge_matches_dedup(plan);
}

TEST(SpillMerge, DuplicateKeysAcrossThreeFiles) {
  std::mt19937_64 rng(12);
  spill_plan plan(3);
  // The same batch in every file, as when queues re-scan one overlap, plus
  // batches drawn from a narrow key range.
  const auto shared = random_batch(rng, 50, 100);
  for (auto& file : plan) {
    file.push_back(shared);
    for (int run = 0; run < 8; ++run) file.push_back(random_batch(rng, 30, 100));
  }
  const usize spilled = expect_merge_matches_dedup(plan);
  std::vector<ot_record> all;
  for (const auto& file : plan) {
    for (const auto& batch : file) all.insert(all.end(), batch.begin(), batch.end());
  }
  cof::sort_and_dedup(all);
  EXPECT_LT(all.size(), spilled) << "the plan must hold duplicate keys";
}

TEST(SpillMerge, RunsWiderThanTheReadWindow) {
  std::mt19937_64 rng(13);
  spill_plan plan(2);
  // Runs of ~100 KiB whose 43-87 byte records straddle every window edge,
  // beside small runs in a second file.
  for (int run = 0; run < 3; ++run) plan[0].push_back(random_batch(rng, 1500, 20000));
  for (int run = 0; run < 5; ++run) plan[1].push_back(random_batch(rng, 7, 20000));
  // Records wider than a whole window, on a chromosome the random keys
  // never use (a key must always carry the same payload).
  plan[1].push_back({keyed_record(0, 2, 5, '+', 9000), keyed_record(1, 2, 7, '-', 20000)});
  plan[1].push_back({keyed_record(2, 2, 19999, '-', 64)});
  {
    temp_dir dir;
    cof::record_spill_writer w(dir.file("wide.run"));
    auto batch = plan[0][0];
    w.spill(batch);
    ASSERT_GT(w.peak_run_bytes(), usize{64} << 10);
  }
  expect_merge_matches_dedup(plan);
}

TEST(SpillMerge, EmptyBatchesAreDropped) {
  std::mt19937_64 rng(14);
  spill_plan plan(2);
  plan[0] = {{}, random_batch(rng, 20, 500), {}, {}, random_batch(rng, 20, 500), {}};
  plan[1] = {{}, {}};
  expect_merge_matches_dedup(plan);
}

TEST(SpillMerge, WriterWithNoRuns) {
  std::mt19937_64 rng(15);
  spill_plan plan(3);
  plan[1] = {random_batch(rng, 40, 500), random_batch(rng, 40, 500)};
  expect_merge_matches_dedup(plan);
  // Every writer empty: nothing to merge, nothing emitted.
  expect_merge_matches_dedup(spill_plan(2));
}

TEST(SpillMerge, MissingFileThrowsSpillError) {
  temp_dir dir;
  std::mt19937_64 rng(16);
  cof::record_spill_writer w(dir.file("present.run"));
  auto batch = random_batch(rng, 10, 100);
  w.spill(batch);
  w.finish();
  usize seen = 0;
  auto sink = [&seen](ot_record&&) { ++seen; };
  EXPECT_THROW((void)cof::merge_spill_runs({dir.file("absent.run")}, sink),
               cof::spill_error);
  EXPECT_THROW((void)cof::merge_spill_runs({w.path(), dir.file("absent.run")}, sink),
               cof::spill_error);
  EXPECT_EQ(seen, 0u);
}

TEST(SpillMerge, TruncatedFileThrowsSpillError) {
  temp_dir dir;
  std::mt19937_64 rng(17);
  const std::string path = dir.file("cut.run");
  auto first = random_batch(rng, 200, 5000);
  auto second = random_batch(rng, 200, 5000);
  u64 first_run = 0, whole = 0;
  {
    cof::record_spill_writer w(dir.file("src.run"));
    w.spill(first);
    first_run = w.bytes();
    w.spill(second);
    whole = w.bytes();
    w.finish();
    fs::copy_file(w.path(), path);  // the writer removes its own file
  }
  ASSERT_EQ(fs::file_size(path), whole);
  usize seen = 0;
  auto sink = [&seen](ot_record&&) { ++seen; };
  // Cut mid-record in the second run, then inside its run header: both
  // fail the header scan, before any record reaches the sink.
  for (const u64 size : {whole - 5, first_run + 10, first_run + 3}) {
    fs::resize_file(path, size);
    EXPECT_THROW((void)cof::merge_spill_runs({path}, sink), cof::spill_error)
        << "cut at " << size;
  }
  EXPECT_EQ(seen, 0u);

  // A run header claiming more records than its payload holds.
  fs::resize_file(path, first_run);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const u64 count = 201;
    f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  EXPECT_THROW((void)cof::merge_spill_runs({path}, sink), cof::spill_error);
}

}  // namespace
