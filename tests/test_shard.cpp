// Multi-device sharding suite: N simulated devices behind the shard layer
// must produce byte-identical records for ANY device count — across queue
// counts, all four device facades, and both the cold (streamed, one chunk
// queue for every device) and warm (index) paths — plus unit coverage of
// the device_set primitive and the per-device metrics the engine reports
// for sharded runs.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/engine_stream.hpp"
#include "core/index.hpp"
#include "core/shard.hpp"
#include "genome/fasta.hpp"
#include "genome/synth.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;

struct temp_dir {
  fs::path path;
  temp_dir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cof_shard_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~temp_dir() { fs::remove_all(path); }
};

genome::genome_t shard_genome(util::u64 seed) {
  genome::synth_params p;
  p.assembly = "shard-test";
  p.chromosomes = {{"chrA", 40000}, {"chrB", 15000}};
  p.seed = seed;
  return genome::generate(p);
}

struct stream_case {
  cof::search_config cfg;
  std::string file;
};

/// Synth genome with planted off-target sites written to FASTA — every
/// sharded run has records to disagree on.
stream_case make_case(const temp_dir& dir, util::u64 seed, util::usize planted) {
  stream_case c;
  auto g = shard_genome(seed);
  c.cfg = cof::parse_input(cof::example_input("<file>"));
  const std::string guide = c.cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, c.cfg.pattern, planted, 2, seed + 1);
  c.file = (dir.path / "g.fa").string();
  genome::write_fasta_file(c.file, g.chroms);
  return c;
}

// --- shard primitives --------------------------------------------------------

TEST(DeviceSet, SingleDeviceIsTheGlobalSimulator) {
  cof::shard::device_set one(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(&one.at(0), &xpu::device::simulator());
  EXPECT_TRUE(one.alive(0));
  EXPECT_EQ(one.alive_count(), 1u);
}

TEST(DeviceSet, OwnedDevicesLivenessAndPick) {
  cof::shard::device_set devs(3);
  ASSERT_EQ(devs.size(), 3u);
  EXPECT_EQ(devs.name(0), "xpu0");
  EXPECT_EQ(devs.name(2), "xpu2");
  for (util::usize d = 0; d < 3; ++d) EXPECT_NE(&devs.at(d), &xpu::device::simulator());
  EXPECT_NE(&devs.at(0), &devs.at(1));

  EXPECT_EQ(devs.pick_alive(1), 1u);
  EXPECT_EQ(devs.mark_failed(1), 2u);
  EXPECT_FALSE(devs.alive(1));
  EXPECT_EQ(devs.alive_count(), 2u);
  EXPECT_EQ(devs.pick_alive(1), 0u);  // hint dead: lowest alive ordinal
  EXPECT_EQ(devs.mark_failed(1), 2u);  // idempotent
  EXPECT_EQ(devs.mark_failed(0), 1u);
  EXPECT_EQ(devs.pick_alive(0), 2u);
}

// --- cold-path byte-identity -------------------------------------------------

/// devices {1,2,3,4} × queues {1,2} on each facade: every sharded streamed
/// run must reproduce the serial reference byte-for-byte, and the
/// per-device accounting must cover every chunk exactly once.
class ShardSweep : public ::testing::TestWithParam<cof::backend_kind> {};

TEST_P(ShardSweep, ByteIdenticalForAnyDeviceCount) {
  temp_dir dir;
  const auto c = make_case(dir, 301, 6);
  const auto g = genome::load_genome(c.file);
  const auto reference =
      cof::run_search(c.cfg, g, {.backend = cof::backend_kind::serial});
  ASSERT_FALSE(reference.records.empty());

  for (const util::usize devices : {1u, 2u, 3u, 4u}) {
    for (const util::usize queues : {1u, 2u}) {
      cof::engine_options opt{.backend = GetParam(), .max_chunk = 5000};
      opt.num_queues = queues;
      opt.num_devices = devices;
      const auto streamed = cof::run_search_streaming(c.cfg, c.file, opt);
      EXPECT_EQ(streamed.records, reference.records)
          << "devices=" << devices << " queues=" << queues;
      ASSERT_EQ(streamed.device_shards.size(), devices)
          << "devices=" << devices << " queues=" << queues;
      util::usize shard_chunks = 0;
      for (const auto& ds : streamed.device_shards) {
        shard_chunks += ds.chunks;
        EXPECT_FALSE(ds.failed);
      }
      EXPECT_EQ(shard_chunks, streamed.metrics.chunks)
          << "devices=" << devices << " queues=" << queues;
      if (devices > 1) {
        EXPECT_EQ(streamed.device_shards[0].name, "xpu0");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ShardSweep,
                         ::testing::Values(cof::backend_kind::opencl,
                                           cof::backend_kind::sycl,
                                           cof::backend_kind::sycl_usm,
                                           cof::backend_kind::sycl_twobit));

/// run_search drives the same runner, so it shards the in-memory genome too:
/// two devices, one consumer each, return the one-device records.
TEST_P(ShardSweep, InMemoryRunSearchMatchesOneDevice) {
  auto g = shard_genome(303);
  const auto cfg = cof::parse_input(cof::example_input("<mem>"));
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 6, 2, 304);
  cof::engine_options opt{.backend = GetParam(), .max_chunk = 5000};
  const auto one = cof::run_search(cfg, g, opt);
  ASSERT_FALSE(one.records.empty());
  opt.num_devices = 2;
  const auto two = cof::run_search(cfg, g, opt);
  EXPECT_EQ(two.records, one.records);
  EXPECT_EQ(two.metrics.chunks, one.metrics.chunks);
  EXPECT_EQ(two.metrics.per_queue.size(), 2u);
}

// --- warm-path byte-identity -------------------------------------------------

/// The warm index path shards its session slots across the device set; the
/// answer must not depend on the device count, cold-built or .cofidx-loaded.
TEST(ShardWarm, IndexQueryByteIdenticalAcrossDeviceCounts) {
  temp_dir dir;
  const auto c = make_case(dir, 303, 6);
  const auto g = genome::load_genome(c.file);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 5000};
  const auto idx = cof::build_index(g, c.cfg.pattern, opt);
  ASSERT_GT(idx.total_hits(), 0u);
  const std::string path = (dir.path / "g.cofidx").string();
  cof::save_index(path, idx);
  const auto loaded = cof::resolve_index(path, c.cfg, opt).index;

  opt.num_queues = 2;
  const auto reference = cof::run_query(idx, c.cfg.queries, opt);
  ASSERT_FALSE(reference.records.empty());
  for (const util::usize devices : {2u, 4u}) {
    cof::engine_options sopt = opt;
    sopt.num_devices = devices;
    const auto warm = cof::run_query(idx, c.cfg.queries, sopt);
    EXPECT_EQ(warm.records, reference.records) << "devices=" << devices;
    const auto from_file = cof::run_query(loaded, c.cfg.queries, sopt);
    EXPECT_EQ(from_file.records, reference.records) << "devices=" << devices;
  }
}

/// A sharded session spreads slots and resident bytes over every device and
/// reports them per device.
TEST(ShardWarm, SessionResidencySpreadsAcrossDevices) {
  temp_dir dir;
  const auto c = make_case(dir, 304, 5);
  const auto g = genome::load_genome(c.file);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 4000};
  const auto idx = cof::build_index(g, c.cfg.pattern, opt);
  ASSERT_GE(idx.chunks.size(), 4u);

  opt.num_queues = 2;
  opt.num_devices = 2;
  cof::index_query_session session(idx, opt);
  const auto out = session.query(c.cfg.queries);
  ASSERT_FALSE(out.records.empty());

  const auto devs = session.device_residency();
  ASSERT_EQ(devs.size(), 2u);
  EXPECT_EQ(devs[0].name, "xpu0");
  EXPECT_EQ(devs[1].name, "xpu1");
  util::usize slots = 0;
  util::u64 chunks = 0;
  for (const auto& d : devs) {
    EXPECT_TRUE(d.alive);
    EXPECT_GT(d.slots, 0u);
    EXPECT_GT(d.resident_bytes, 0u);
    slots += d.slots;
    chunks += d.chunks;
  }
  EXPECT_EQ(slots, 4u);  // num_queues per device
  EXPECT_GT(chunks, 0u);
  EXPECT_EQ(session.failed_devices(), 0u);
  EXPECT_EQ(session.device_migrations(), 0u);
  // The per-device bytes snapshot must agree with the session-wide one.
  util::usize bytes = 0;
  for (const auto& d : devs) bytes += d.resident_bytes;
  EXPECT_EQ(bytes, session.resident_bytes());
}

// --- randomized soak ---------------------------------------------------------

/// Randomized multi-guide soak: random genomes, guides sampled off the
/// forward strand, random device/queue mix — every sharded run must match
/// its own single-device reference exactly.
class ShardSoak : public ::testing::TestWithParam<int> {};

TEST_P(ShardSoak, RandomConfigsMatchSingleDevice) {
  util::rng rng(4100 + static_cast<util::u64>(GetParam()));
  temp_dir dir;
  auto g = shard_genome(4200 + static_cast<util::u64>(GetParam()));
  auto cfg = cof::parse_input(cof::example_input("<soak>"));
  // Guides sampled from the genome itself (forward strand, PAM-adjacent
  // where the sequence allows) so mismatch thresholds produce rich hits.
  cfg.queries.clear();
  const auto& seq = g.chroms[0].seq;
  const util::usize glen = cfg.pattern.size() - 3;
  const auto nguides = 2 + rng.next_below(4);
  for (util::u64 q = 0; q < nguides; ++q) {
    const util::usize at = 500 + rng.next_below(seq.size() - glen - 600);
    cof::query_spec qs;
    qs.seq = seq.substr(at, glen) + "NNN";
    qs.max_mismatches = static_cast<cof::u16>(2 + rng.next_below(4));
    cfg.queries.push_back(std::move(qs));
  }
  const auto file = dir.path / "soak.fa";
  genome::write_fasta_file(file.string(), g.chroms);

  cof::engine_options opt{.backend = cof::backend_kind::sycl};
  opt.max_chunk = 3000 + rng.next_below(6000);
  opt.num_queues = 1 + rng.next_below(3);
  // An unused draw, kept so every seed keeps its device, queue and chunk
  // settings.
  (void)rng.next_bool(0.5);
  cof::engine_options ref_opt = opt;
  ref_opt.num_devices = 1;
  const auto reference = cof::run_search_streaming(cfg, file.string(), ref_opt);
  opt.num_devices = 2 + rng.next_below(3);
  const auto sharded = cof::run_search_streaming(cfg, file.string(), opt);
  ASSERT_EQ(sharded.records, reference.records)
      << "seed=" << GetParam() << " devices=" << opt.num_devices
      << " queues=" << opt.num_queues << " chunk=" << opt.max_chunk;
  EXPECT_EQ(sharded.streamed_bases, reference.streamed_bases);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSoak, ::testing::Range(1, 7));

}  // namespace
