// Differential fuzzing: random genomes (with N-gaps, reference IUPAC codes,
// an empty record and a record ending exactly on a chunk boundary), random
// IUPAC PAM patterns, random degenerate queries and thresholds — every entry
// point (in-memory, streamed from FASTA, streamed over two devices of two
// queues each, warm index in memory and after a .cofidx save and load) on
// every device backend, with both comparer shapes (opt6's batched launch,
// base's per-query launches), must agree with the serial reference
// bit-for-bit, across chunkings and work-group sizes. This is the
// repository's broadest invariant.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "core/engine_stream.hpp"
#include "core/index.hpp"
#include "genome/fasta.hpp"
#include "genome/iupac.hpp"
#include "util/rng.hpp"

namespace {

using namespace cof;

struct fuzz_case {
  genome::genome_t g;
  search_config cfg;
  usize max_chunk;
  usize wg;
};

fuzz_case make_case(util::u64 seed) {
  util::rng rng(seed * 2654435761u + 1);
  fuzz_case fc;

  // Genome: 1-3 chromosomes, 2k-30k bases, ACGT with occasional N runs and
  // a sprinkle of reference IUPAC codes and one non-nucleotide byte ('X').
  // Upper case only, as both FASTA decoders upper-case: the streamed entry
  // point then sees the same bytes as the in-memory one.
  const std::string ambiguous = "RYSWKMBDHVX";
  const auto nchroms = 1 + rng.next_below(3);
  for (util::u64 c = 0; c < nchroms; ++c) {
    genome::chromosome chrom;
    chrom.name = "chr" + std::to_string(c);
    const auto len = 2000 + rng.next_below(28000);
    chrom.seq.reserve(len);
    for (util::u64 i = 0; i < len; ++i) {
      if (rng.next_bool(0.01)) {
        const auto gap = 1 + rng.next_below(50);
        for (util::u64 j = 0; j < gap && chrom.seq.size() < len; ++j) {
          chrom.seq += 'N';
        }
      } else if (rng.next_bool(0.01)) {
        chrom.seq += ambiguous[rng.next_below(ambiguous.size())];
      } else {
        chrom.seq += "ACGT"[rng.next_below(4)];
      }
    }
    chrom.seq.resize(len, 'A');
    fc.g.chroms.push_back(std::move(chrom));
  }

  // Pattern: 8-28 positions; N-run guide + 1-4 constrained PAM positions
  // drawn from the full IUPAC alphabet, at a random end.
  const std::string iupac = "ACGTRYSWKMBDHV";
  const auto plen = 8 + rng.next_below(21);
  const auto pam_len = 1 + rng.next_below(4);
  std::string pam;
  for (util::u64 i = 0; i < pam_len; ++i) pam += iupac[rng.next_below(iupac.size())];
  const bool pam_at_3prime = rng.next_bool(0.5);
  std::string pattern = pam_at_3prime
                            ? std::string(plen - pam_len, 'N') + pam
                            : pam + std::string(plen - pam_len, 'N');
  fc.cfg.genome_path = "<fuzz>";
  fc.cfg.pattern = pattern;

  // 1-4 queries: degenerate codes allowed, N's where the PAM sits.
  const auto nqueries = 1 + rng.next_below(4);
  for (util::u64 qi = 0; qi < nqueries; ++qi) {
    std::string q;
    for (util::u64 i = 0; i < plen; ++i) {
      if (pattern[i] != 'N') {
        q += 'N';
      } else if (rng.next_bool(0.1)) {
        q += iupac[rng.next_below(iupac.size())];
      } else {
        q += "ACGT"[rng.next_below(4)];
      }
    }
    fc.cfg.queries.push_back(
        {q, static_cast<u16>(rng.next_below(plen / 2 + 1))});
  }

  fc.max_chunk = 1500 + rng.next_below(20000);
  const usize wgs[] = {0, 16, 64, 128, 256};
  fc.wg = wgs[rng.next_below(5)];

  // A record ending exactly on a chunk boundary (max_chunk plus k whole
  // strides, the carried overlap alone left at EOF) and an empty record,
  // each at a random position among the others.
  const usize stride = fc.max_chunk - (plen - 1);
  genome::chromosome exact;
  exact.name = "exact";
  exact.seq.resize(fc.max_chunk + rng.next_below(3) * stride);
  for (auto& b : exact.seq) b = "ACGT"[rng.next_below(4)];
  genome::chromosome empty;
  empty.name = "empty";
  for (genome::chromosome* extra : {&exact, &empty}) {
    const auto at = rng.next_below(fc.g.chroms.size() + 1);
    fc.g.chroms.insert(fc.g.chroms.begin() + static_cast<std::ptrdiff_t>(at),
                       std::move(*extra));
  }
  return fc;
}

/// A file in the temp directory, removed when the case ends.
struct temp_file {
  std::string path;
  explicit temp_file(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("cof_fuzz_" + std::to_string(::getpid()) + "_" + name))
                 .string()) {}
  ~temp_file() { std::filesystem::remove(path); }
};

class Differential : public ::testing::TestWithParam<int> {};

TEST_P(Differential, EveryEntryPointMatchesSerial) {
  const auto fc = make_case(static_cast<util::u64>(GetParam()));
  const auto serial = run_search(fc.cfg, fc.g, {.backend = backend_kind::serial});
  const std::string seed = std::to_string(GetParam());
  const temp_file fasta(seed + ".fa");
  genome::write_fasta_file(fasta.path, fc.g.chroms);
  for (auto backend : {backend_kind::opencl, backend_kind::sycl,
                       backend_kind::sycl_usm, backend_kind::sycl_twobit}) {
    engine_options opt{.backend = backend,
                       .wg_size = fc.wg,
                       .max_chunk = fc.max_chunk};
    const genome_index idx = build_index(fc.g, fc.cfg.pattern, opt);
    // The same index through the .cofidx words-and-runs round trip.
    const temp_file cofidx(seed + "_" + backend_name(backend) + ".cofidx");
    save_index(cofidx.path, idx);
    const genome_index loaded = load_index(cofidx.path);
    for (const auto variant : {comparer_variant::opt6, comparer_variant::base}) {
      opt.variant = variant;
      engine_options sharded = opt;
      sharded.num_devices = 2;
      sharded.num_queues = 2;
      const auto where = [&](const char* entry) {
        return std::string(entry) + " " + backend_name(backend) + " " +
               comparer_variant_name(variant) +
               " seed=" + std::to_string(GetParam()) + " pattern=" +
               fc.cfg.pattern + " chunk=" + std::to_string(fc.max_chunk) +
               " wg=" + std::to_string(fc.wg);
      };
      ASSERT_EQ(run_search(fc.cfg, fc.g, opt).records, serial.records)
          << where("in-memory");
      ASSERT_EQ(run_search_streaming(fc.cfg, fasta.path, opt).records,
                serial.records)
          << where("streamed");
      ASSERT_EQ(run_search_streaming(fc.cfg, fasta.path, sharded).records,
                serial.records)
          << where("streamed, 2 devices x 2 queues");
      ASSERT_EQ(run_query(idx, fc.cfg.queries, opt).records, serial.records)
          << where("warm");
      ASSERT_EQ(run_query(loaded, fc.cfg.queries, opt).records, serial.records)
          << where("warm, saved and loaded");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential, ::testing::Range(1, 17));

// Every variant, so the per-query kernels of opt1..opt4 stay fuzzed beside
// opt6's batched comparer.
class DifferentialVariants : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialVariants, VariantsMatchSerial) {
  const auto fc = make_case(static_cast<util::u64>(GetParam()) + 1000);
  const auto serial = run_search(fc.cfg, fc.g, {.backend = backend_kind::serial});
  for (int v = 0; v < kNumComparerVariants; ++v) {
    engine_options opt{.backend = backend_kind::sycl,
                       .variant = static_cast<comparer_variant>(v),
                       .max_chunk = fc.max_chunk};
    const auto r = run_search(fc.cfg, fc.g, opt);
    ASSERT_EQ(r.records, serial.records) << "variant " << v << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialVariants, ::testing::Range(1, 7));

// The 2-bit pipeline collapses every non-ACGT reference byte to 'N', which
// is exact: the kernels' mismatch relation treats every such byte like 'N'.
class DifferentialTwobit : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTwobit, PackedMatchesSerial) {
  const auto fc = make_case(static_cast<util::u64>(GetParam()) + 2000);
  const auto serial = run_search(fc.cfg, fc.g, {.backend = backend_kind::serial});
  engine_options opt{.backend = backend_kind::sycl_twobit,
                     .max_chunk = fc.max_chunk};
  const auto r = run_search(fc.cfg, fc.g, opt);
  ASSERT_EQ(r.records, serial.records) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTwobit, ::testing::Range(1, 9));

}  // namespace
