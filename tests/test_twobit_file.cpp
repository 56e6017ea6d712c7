// UCSC .2bit container round-trip and integration tests.
#include <gtest/gtest.h>

#include "gtest_compat.hpp"

#include <filesystem>
#include <fstream>

#include "core/engine.hpp"
#include "genome/synth.hpp"
#include "genome/twobit_file.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;

struct temp_file {
  fs::path path;
  explicit temp_file(const char* name) {
    static int n = 0;
    path = fs::temp_directory_path() /
           (std::string("cof_2bit_") + std::to_string(::getpid()) + "_" +
            std::to_string(n++) + "_" + name);
  }
  ~temp_file() { fs::remove(path); }
};

TEST(TwoBitFile, RoundTripSimple) {
  temp_file f("simple.2bit");
  genome::genome_t g;
  g.chroms = {{"chr1", "ACGTACGTAC"}, {"chr2", "TTTTGGGG"}};
  genome::write_twobit_file(f.path.string(), g);
  auto back = genome::read_twobit_file(f.path.string());
  ASSERT_EQ(back.chroms.size(), 2u);
  EXPECT_EQ(back.chroms[0].name, "chr1");
  EXPECT_EQ(back.chroms[0].seq, "ACGTACGTAC");
  EXPECT_EQ(back.chroms[1].seq, "TTTTGGGG");
}

TEST(TwoBitFile, NBlocksRestored) {
  temp_file f("nblocks.2bit");
  genome::genome_t g;
  g.chroms = {{"chr", "NNACGTNNNNACNGTNNN"}};
  genome::write_twobit_file(f.path.string(), g);
  auto back = genome::read_twobit_file(f.path.string());
  EXPECT_EQ(back.chroms[0].seq, "NNACGTNNNNACNGTNNN");
}

TEST(TwoBitFile, AmbiguityCodesCollapseToN) {
  temp_file f("amb.2bit");
  genome::genome_t g;
  g.chroms = {{"chr", "ACRGT"}};  // R is not representable in 2 bits
  genome::write_twobit_file(f.path.string(), g);
  auto back = genome::read_twobit_file(f.path.string());
  EXPECT_EQ(back.chroms[0].seq, "ACNGT");
}

TEST(TwoBitFile, NonMultipleOfFourLengths) {
  for (int len = 1; len <= 9; ++len) {
    temp_file f("len.2bit");
    std::string seq;
    for (int i = 0; i < len; ++i) seq += "ACGT"[i % 4];
    genome::genome_t g;
    g.chroms = {{"c", seq}};
    genome::write_twobit_file(f.path.string(), g);
    EXPECT_EQ(genome::read_twobit_file(f.path.string()).chroms[0].seq, seq) << len;
  }
}

TEST(TwoBitFile, RandomRoundTrip) {
  util::rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    temp_file f("rand.2bit");
    genome::genome_t g;
    const auto nchroms = 1 + rng.next_below(4);
    for (util::u64 c = 0; c < nchroms; ++c) {
      genome::chromosome chrom;
      chrom.name = "c";
      chrom.name += std::to_string(c);
      const auto len = rng.next_below(3000);
      for (util::u64 i = 0; i < len; ++i) chrom.seq += "ACGTN"[rng.next_below(5)];
      g.chroms.push_back(std::move(chrom));
    }
    genome::write_twobit_file(f.path.string(), g);
    auto back = genome::read_twobit_file(f.path.string());
    ASSERT_EQ(back.chroms.size(), g.chroms.size());
    for (size_t i = 0; i < g.chroms.size(); ++i) {
      EXPECT_EQ(back.chroms[i].name, g.chroms[i].name);
      EXPECT_EQ(back.chroms[i].seq, g.chroms[i].seq);
    }
  }
}

TEST(TwoBitFile, PackedSizeRoughlyQuarter) {
  temp_file f("size.2bit");
  genome::genome_t g;
  g.chroms = {{"chr", std::string(100000, 'A')}};
  genome::write_twobit_file(f.path.string(), g);
  EXPECT_LT(fs::file_size(f.path), 26000u);
}

TEST(TwoBitFileDeath, BadSignature) {
  temp_file f("bad.2bit");
  {
    std::ofstream out(f.path);
    out << "this is not a 2bit file at all";
  }
  EXPECT_THROW((void)genome::read_twobit_file(f.path.string()), genome::fasta_error);
}

std::string read_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_bytes(const fs::path& p, const std::string& bytes) {
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
}

/// Every proper prefix of a valid .2bit file (header, index, N-block
/// tables, packed bases) and a missing file throw fasta_error from the
/// reader and from load_genome: each field is checked against the bytes
/// left before it is read, allocated or written.
TEST(TwoBitFileHostile, EveryTruncationThrows) {
  temp_file full("full.2bit");
  genome::genome_t g;
  g.chroms = {{"chr1", "ACGTNNNNACGTACGTRYAC"}, {"chrM", "GGGGTTTTNACGTAC"}};
  genome::write_twobit_file(full.path.string(), g);
  const std::string bytes = read_bytes(full.path);
  ASSERT_EQ(genome::read_twobit_file(full.path.string()).chroms[0].seq,
            "ACGTNNNNACGTACGTNNAC");
  temp_file cut("cut.2bit");
  for (util::usize keep = 0; keep < bytes.size(); ++keep) {
    write_bytes(cut.path, bytes.substr(0, keep));
    EXPECT_THROW((void)genome::read_twobit_file(cut.path.string()), genome::fasta_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
    EXPECT_THROW((void)genome::load_genome(cut.path.string()), genome::fasta_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
  EXPECT_THROW((void)genome::load_genome("/nonexistent/g.2bit"), genome::fasta_error);
}

/// An N block whose start + size wraps a u32 (0xFFFFFFF8 + 0x10 == 8) must
/// not pass the range check and write past the sequence; nor may a block
/// or mask count claim more table bytes than the file holds.
TEST(TwoBitFileHostile, OutOfRangeBlocksThrow) {
  auto put = [](std::string& out, util::u32 v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  // One sequence "chr1" of 16 bases at offset 16 + 1 + 4 + 4 = 25.
  auto image = [&](util::u32 nblocks, util::u32 nstart, util::u32 nsize,
                   util::u32 maskblocks) {
    std::string out;
    put(out, genome::kTwoBitSignature);
    put(out, 0);
    put(out, 1);
    put(out, 0);
    out.push_back(4);
    out += "chr1";
    put(out, 25);
    put(out, 16);  // dna size
    put(out, nblocks);
    for (util::u32 b = 0; b < std::min<util::u32>(nblocks, 1); ++b) put(out, nstart);
    for (util::u32 b = 0; b < std::min<util::u32>(nblocks, 1); ++b) put(out, nsize);
    put(out, maskblocks);
    put(out, 0);
    out += std::string(4, '\x1B');
    return out;
  };
  temp_file f("crafted.2bit");
  write_bytes(f.path, image(1, 4, 4, 0));
  EXPECT_EQ(genome::load_genome(f.path.string()).chroms[0].seq, "TCAGNNNNTCAGTCAG");
  for (const std::string& hostile :
       {image(1, 0xFFFFFFF8u, 0x10, 0), image(1, 12, 5, 0), image(1u << 20, 0, 0, 0),
        image(1, 0, 1, 1u << 20)}) {
    write_bytes(f.path, hostile);
    EXPECT_THROW((void)genome::load_genome(f.path.string()), genome::fasta_error);
  }
}

/// Index entries sharing a record, a record inside another and a record
/// starting inside the header or index throw before any base is decoded,
/// so a small file cannot claim more than four bases per byte.
TEST(TwoBitFileHostile, SharedOrOverlappingRecordsThrow) {
  auto put = [](std::string& out, util::u32 v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  // A record of `bases` bases, no N or mask blocks, whose packed bytes
  // start with `packed` and are 0x1B ("TCAG") after it.
  auto record = [&](util::u32 bases, const std::string& packed = "") {
    std::string rec;
    for (util::u32 v : {bases, 0u, 0u, 0u}) put(rec, v);
    return rec + packed + std::string((bases + 3) / 4 - packed.size(), '\x1B');
  };
  // The header and one index entry per (name, offset), then `body`.
  auto image = [&](const std::vector<std::pair<std::string, util::u32>>& index,
                   const std::string& body) {
    std::string out;
    for (util::u32 v : {genome::kTwoBitSignature, 0u, util::u32(index.size()), 0u}) {
      put(out, v);
    }
    for (const auto& [name, offset] : index) {
      out.push_back(static_cast<char>(name.size()));
      out += name;
      put(out, offset);
    }
    return out + body;
  };
  temp_file f("overlap.2bit");
  auto expect_rejected = [&](const std::string& bytes, const std::string& why,
                             const std::string& why_not) {
    write_bytes(f.path, bytes);
    try {
      (void)genome::read_twobit_file(f.path.string());
      ADD_FAILURE() << why_not << ": decoded";
    } catch (const genome::fasta_error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << why_not << ": " << e.what();
    }
    EXPECT_THROW((void)genome::load_genome(f.path.string()), genome::fasta_error)
        << why_not;
  };

  // Two records side by side decode (the index ends at 16 + 2 * 7 = 30).
  write_bytes(f.path, image({{"s0", 30}, {"s1", 50}}, record(16) + record(16)));
  const auto two = genome::load_genome(f.path.string());
  ASSERT_EQ(two.chroms.size(), 2u);
  EXPECT_EQ(two.chroms[1].seq, "TCAGTCAGTCAGTCAG");

  expect_rejected(image({{"s0", 37}, {"s1", 37}, {"s2", 37}}, record(16)),
                  "overlapping", "three entries on one record");
  // A 4-base record as the 68-base record's 17 packed bytes, at 30 + 16.
  expect_rejected(image({{"s0", 30}, {"s1", 46}}, record(68, record(4))), "overlapping",
                  "a record inside another");
  expect_rejected(image({{"s0", 0}}, record(16)), "header or index",
                  "a record at offset 0");
  // A whole 4-base record as an index entry's name, the entry pointing at it.
  expect_rejected(image({{record(4) + "pad", 17}}, ""), "header or index",
                  "a record inside the index");
}

TEST(TwoBitFile, LoadGenomeDispatchesOnExtension) {
  temp_file f("auto.2bit");
  genome::genome_t g;
  g.chroms = {{"chrZ", "ACGTNNACGT"}};
  genome::write_twobit_file(f.path.string(), g);
  auto loaded = genome::load_genome(f.path.string());
  ASSERT_EQ(loaded.chroms.size(), 1u);
  EXPECT_EQ(loaded.chroms[0].seq, "ACGTNNACGT");
}

TEST(TwoBitFile, EndToEndSearchFrom2bit) {
  temp_file f("search.2bit");
  auto g = genome::generate([] {
    genome::synth_params p;
    p.assembly = "2bit-e2e";
    p.chromosomes = {{"chrA", 30000}};
    p.seed = 111;
    return p;
  }());
  genome::write_twobit_file(f.path.string(), g);
  auto cfg = cof::parse_input(cof::example_input(f.path.string()));
  auto from_2bit = genome::load_genome(cfg.genome_path);
  auto r1 = cof::run_search(cfg, from_2bit, {.backend = cof::backend_kind::sycl});
  auto r2 = cof::run_search(cfg, g, {.backend = cof::backend_kind::serial});
  EXPECT_EQ(r1.records, r2.records);
}

}  // namespace
