// Fault-injection suite: the registry's spec/mode semantics, and one
// deterministic failure-path check per registered site wired through the
// streaming engine — every injected fault must end in either full recovery
// (byte-identical records vs an un-faulted run) or a clean site-named
// error; never a hang, a crash, or silent truncation. Failed runs must not
// leave spill files behind.
#include <gtest/gtest.h>

#include "gtest_compat.hpp"

#include <cstdlib>
#include <filesystem>

#include "core/engine_stream.hpp"
#include "core/index.hpp"
#include "core/pipeline.hpp"
#include "core/recovery.hpp"
#include "fault/fault.hpp"
#include "serve/server.hpp"
#include "genome/chunker.hpp"
#include "genome/synth.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;

struct temp_dir {
  fs::path path;
  temp_dir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cof_fault_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~temp_dir() { fs::remove_all(path); }
};

genome::genome_t fault_genome(util::u64 seed) {
  genome::synth_params p;
  p.assembly = "fault-test";
  p.chromosomes = {{"chrA", 40000}, {"chrB", 15000}};
  p.seed = seed;
  return genome::generate(p);
}

struct stream_case {
  cof::search_config cfg;
  std::string file;
};

/// Synth genome with `planted` real off-target sites written to a FASTA
/// file — so every streaming run in this suite has records to compare.
stream_case make_case(const temp_dir& dir, util::u64 seed, util::usize planted) {
  stream_case c;
  auto g = fault_genome(seed);
  c.cfg = cof::parse_input(cof::example_input("<file>"));
  const std::string guide = c.cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, c.cfg.pattern, planted, 2, seed + 1);
  c.file = (dir.path / "g.fa").string();
  c.cfg.genome_path = c.file;
  genome::write_fasta_file(c.file, g.chroms);
  return c;
}

/// A warm run as the CLI's --index makes one: resolve_index, then the
/// queries through an index_query_session, inside one run_scope that arms
/// opt.faults and opt's obs files across both.
struct warm_run {
  cof::resolved_index resolved;
  cof::search_outcome outcome;
};
warm_run run_warm(const cof::search_config& cfg, const std::string& path,
                  const cof::engine_options& opt) {
  cof::run_scope run(opt);
  warm_run w;
  w.resolved = cof::resolve_index(path, cfg, opt);
  cof::index_query_session session(w.resolved.index, opt);
  w.outcome = session.query(cfg.queries);
  run.finish();
  return w;
}

/// Spill files live in the system temp dir as cof_spill_<pid>_...; a failed
/// run must remove every one it created.
util::usize spill_files_for_this_pid() {
  const std::string prefix = "cof_spill_" + std::to_string(::getpid()) + "_";
  util::usize n = 0;
  for (const auto& e : fs::directory_iterator(fs::temp_directory_path())) {
    if (e.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

// --- registry semantics ------------------------------------------------------

TEST(FaultRegistry, HitModeFiresOnExactlyTheNthHit) {
  fault::reset();
  fault::configure("dev.launch=hit:2");
  EXPECT_TRUE(fault::armed());
  EXPECT_FALSE(fault::should_fail(fault::site::dev_launch));
  EXPECT_TRUE(fault::should_fail(fault::site::dev_launch));
  EXPECT_FALSE(fault::should_fail(fault::site::dev_launch));
  const auto st = fault::stats(fault::site::dev_launch);
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.injected, 1u);
  fault::reset();
  EXPECT_FALSE(fault::armed());
}

TEST(FaultRegistry, AlwaysAndOffModes) {
  fault::reset();
  fault::configure("pipe.event=always");
  EXPECT_TRUE(fault::should_fail(fault::site::pipe_event));
  EXPECT_TRUE(fault::should_fail(fault::site::pipe_event));
  // Other sites stay dark, and unarmed probes cost nothing.
  EXPECT_FALSE(fault::should_fail(fault::site::dev_alloc));
  fault::configure("pipe.event=off");
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::should_fail(fault::site::pipe_event));
  fault::reset();
}

TEST(FaultRegistry, ProbModeIsDeterministicPerSeed) {
  auto draw = [](const char* spec) {
    fault::reset();
    fault::configure(spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(fault::should_fail(fault::site::spill_write));
    }
    fault::reset();
    return fired;
  };
  const auto a = draw("spill.write=prob:0.5:42");
  const auto b = draw("spill.write=prob:0.5:42");
  const auto c = draw("spill.write=prob:0.5:43");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // P=0.5 over 64 draws: both outcomes must appear.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST(FaultRegistry, InjectPointThrowsSiteNamedError) {
  fault::reset();
  fault::configure("spill.merge=always");
  try {
    fault::inject_point(fault::site::spill_merge);
    FAIL() << "expected injected_error";
  } catch (const fault::injected_error& e) {
    EXPECT_EQ(e.site(), "spill.merge");
    EXPECT_NE(std::string(e.what()).find("spill.merge"), std::string::npos);
  }
  fault::reset();
}

TEST(FaultRegistry, ScopeAppliesEnvThenSpecsAndDisarmsOnExit) {
  ::setenv("COF_FAULT", "dev.alloc=always", 1);
  {
    fault::scope guard("dev.alloc=off,queue.pop=hit:1");
    // The explicit spec overrides the environment for dev.alloc.
    EXPECT_FALSE(fault::should_fail(fault::site::dev_alloc));
    EXPECT_TRUE(fault::should_fail(fault::site::queue_pop));
  }
  ::unsetenv("COF_FAULT");
  EXPECT_FALSE(fault::armed());
  // Counters survive scope exit for post-run assertions.
  EXPECT_EQ(fault::stats(fault::site::queue_pop).injected, 1u);
  fault::reset();
}

/// Scopes nest: a one-shot entry point (run_query opens its own run_scope)
/// called inside a caller's armed scope runs under the caller's plan and
/// leaves it armed; a nested scope's specs add to the live plan; only the
/// outermost scope's exit disarms.
TEST(FaultRegistry, NestedScopeKeepsTheOuterPlan) {
  temp_dir dir;
  const auto c = make_case(dir, 123, 6);
  const cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto idx = cof::build_index(genome::load_genome(c.file), c.cfg.pattern, opt);
  const auto clean = cof::run_query(idx, c.cfg.queries, opt);
  ASSERT_FALSE(clean.records.empty());
  {
    fault::scope outer("dev.launch=always");
    try {
      const auto out = cof::run_query(idx, c.cfg.queries, opt);
      ADD_FAILURE() << "run_query returned " << out.records.size()
                    << " records under the caller's plan, injected="
                    << fault::stats("dev.launch").injected;
    } catch (const fault::injected_error& e) {
      EXPECT_EQ(e.site(), std::string("dev.launch"));
    }
    EXPECT_TRUE(fault::armed()) << "the nested scope disarmed the caller's plan";
    EXPECT_GT(fault::stats("dev.launch").injected, 0u);
    {
      fault::scope inner("queue.pop=hit:1");
      EXPECT_TRUE(fault::should_fail(fault::site::queue_pop));
      EXPECT_FALSE(fault::should_fail(fault::site::queue_pop));
      EXPECT_TRUE(fault::should_fail(fault::site::dev_launch));
    }
    EXPECT_TRUE(fault::armed());
    EXPECT_TRUE(fault::should_fail(fault::site::dev_launch));
  }
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::should_fail(fault::site::dev_launch));
  EXPECT_EQ(cof::run_query(idx, c.cfg.queries, opt).records, clean.records);
  fault::reset();
}

/// An `@N` qualifier restricts a spec to threads bound to shard ordinal N
/// (xpu::scoped_device publishes the binding). Unbound threads and other
/// ordinals never fire it; the qualified entry keeps its own counters.
TEST(FaultRegistry, ShardQualifierFiresOnlyOnTheMatchingOrdinal) {
  fault::reset();
  fault::configure("dev.launch@1=always");
  EXPECT_TRUE(fault::armed());
  // Unbound thread (ordinal -1): the qualified spec stays dark.
  EXPECT_FALSE(fault::should_fail(fault::site::dev_launch));
  fault::set_thread_shard(0);
  EXPECT_FALSE(fault::should_fail(fault::site::dev_launch));
  fault::set_thread_shard(1);
  EXPECT_TRUE(fault::should_fail(fault::site::dev_launch));
  EXPECT_TRUE(fault::should_fail(fault::site::dev_launch));
  fault::set_thread_shard(-1);
  EXPECT_FALSE(fault::should_fail(fault::site::dev_launch));
  EXPECT_EQ(fault::stats("dev.launch@1").injected, 2u);
  // An unqualified spec composes: it fires on every thread regardless of
  // the binding.
  fault::configure("dev.launch=always");
  EXPECT_TRUE(fault::should_fail(fault::site::dev_launch));
  fault::reset();
}

TEST(FaultRegistryDeath, UnknownSiteAndBadModeDie) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(fault::configure("bogus.site=always"), "unknown fault site");
  EXPECT_DEATH(fault::configure("dev.alloc=sometimes"), "unknown fault mode");
  EXPECT_DEATH(fault::configure("dev.alloc"), "site=mode");
  EXPECT_DEATH(fault::configure("dev.alloc=hit:0"), "hit:N");
  EXPECT_DEATH(fault::configure("dev.alloc=prob:1.5"), "prob:P");
  EXPECT_DEATH(fault::configure("dev.alloc@x=always"), "shard ordinal");
  EXPECT_DEATH(fault::configure("dev.alloc@=always"), "shard ordinal");
}

// --- per-site streaming matrix -----------------------------------------------

struct site_case {
  const char* site;
  bool recovers;  // true: records must match the clean run; false: clean
                  // site-attributable error (and no leftover spill files)
};

class FaultSites : public ::testing::TestWithParam<site_case> {};

/// One injected fault per registered site, at the first hit: the recoverable
/// sites must produce byte-identical records to an un-faulted run; the rest
/// must surface a clean error naming the site — and never leave partial
/// spill output behind.
TEST_P(FaultSites, SingleFaultRecoversOrFailsClean) {
  const auto& tc = GetParam();
  temp_dir dir;
  const auto c = make_case(dir, 101, 6);

  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto clean = cof::run_search_streaming(c.cfg, c.file, opt);
  ASSERT_FALSE(clean.records.empty());

  // The index sites only fire on a warm run: route the faulted run through
  // resolve_index (index.persist lands on the cold build-and-persist path;
  // index.load needs a cache built by a clean warm run first).
  const bool warm = std::string_view(tc.site).rfind("index.", 0) == 0;
  const std::string index_path = (dir.path / "g.cofidx").string();
  auto run = [&] {
    return warm ? run_warm(c.cfg, index_path, opt).outcome.records
                : cof::run_search_streaming(c.cfg, c.file, opt).records;
  };
  if (std::string_view(tc.site) == "index.load") {
    EXPECT_EQ(run(), clean.records) << tc.site;
  }

  opt.faults = std::string(tc.site) + "=hit:1";
  const util::usize spills_before = spill_files_for_this_pid();
  if (tc.recovers) {
    EXPECT_EQ(run(), clean.records) << tc.site;
    EXPECT_GE(fault::stats(tc.site).injected, 1u) << tc.site;
  } else {
    try {
      (void)run();
      FAIL() << tc.site << ": expected a clean failure";
    } catch (const fault::injected_error& e) {
      EXPECT_EQ(e.site(), tc.site);
    }
  }
  // Recovery or failure, the run's spill files are gone.
  EXPECT_EQ(spill_files_for_this_pid(), spills_before) << tc.site;
}

INSTANTIATE_TEST_SUITE_P(
    Sites, FaultSites,
    ::testing::Values(site_case{"dev.alloc", true},
                      site_case{"dev.launch", true},
                      site_case{"pipe.event", true},
                      site_case{"queue.push", false},
                      site_case{"queue.pop", false},
                      site_case{"spill.write", true},
                      site_case{"spill.merge", false},
                      site_case{"entry.clamp", true},
                      // Mid-kernel executor fault: surfaces after the group
                      // join as injected_error, so the device-phase retry
                      // rebuilds the pipeline and re-runs the chunk.
                      site_case{"exec.kernel", true},
                      // Mid-parse decoder fault: the producer owns the FASTA
                      // stream; a parse fault cannot be replayed (the stream
                      // position is gone), so it must fail clean.
                      site_case{"fasta.parse", false},
                      // Index cache I/O: a failed persist or load has no
                      // retry loop (the caller rebuilds or falls back to a
                      // cold run), so both must fail clean.
                      site_case{"index.persist", false},
                      site_case{"index.load", false}),
    [](const ::testing::TestParamInfo<site_case>& info) {
      std::string name = info.param.site;
      for (auto& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

/// A failed parse must leave the process reusable: the same config re-run
/// without the fault produces the full record set, and the registry's
/// counters record exactly one injection.
TEST(FaultSites, FastaParseFailureThenCleanRerunSucceeds) {
  temp_dir dir;
  const auto c = make_case(dir, 108, 6);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto clean = cof::run_search_streaming(c.cfg, c.file, opt);
  ASSERT_FALSE(clean.records.empty());

  opt.faults = "fasta.parse=hit:3";  // land mid-parse, not on the first line
  try {
    (void)cof::run_search_streaming(c.cfg, c.file, opt);
    FAIL() << "expected injected_error";
  } catch (const fault::injected_error& e) {
    EXPECT_EQ(e.site(), std::string("fasta.parse"));
  }
  EXPECT_EQ(fault::stats("fasta.parse").injected, 1u);
  EXPECT_GE(fault::stats("fasta.parse").hits, 3u);
  EXPECT_EQ(spill_files_for_this_pid(), 0u);

  opt.faults.clear();
  const auto rerun = cof::run_search_streaming(c.cfg, c.file, opt);
  EXPECT_EQ(rerun.records, clean.records);
}

/// Mid-kernel faults must recover on the opt6 SWAR path too — both kernel
/// argument blocks flow through the same executor fault site.
TEST(FaultSites, ExecKernelRecoversOnSwarVariant) {
  temp_dir dir;
  const auto c = make_case(dir, 109, 6);
  cof::engine_options opt{.backend = cof::backend_kind::sycl,
                          .variant = cof::comparer_variant::opt6,
                          .max_chunk = 9000};
  const auto clean = cof::run_search_streaming(c.cfg, c.file, opt);
  ASSERT_FALSE(clean.records.empty());

  opt.faults = "exec.kernel=hit:5";
  const auto faulted = cof::run_search_streaming(c.cfg, c.file, opt);
  EXPECT_EQ(faulted.records, clean.records);
  EXPECT_EQ(fault::stats("exec.kernel").injected, 1u);
}

/// Inject at a mid-run hit and at the LAST hit (learned by counting hits
/// with a never-firing plan first), for a recoverable site: recovery must
/// hold wherever the fault lands, not just on the first operation.
TEST(FaultSites, MidAndLastHitStillRecover) {
  temp_dir dir;
  const auto c = make_case(dir, 102, 6);

  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 6000};
  // Count the site's hits without firing (hit:N far past any real count).
  opt.faults = "dev.launch=hit:1000000000";
  const auto clean = cof::run_search_streaming(c.cfg, c.file, opt);
  const util::u64 total = fault::stats("dev.launch").hits;
  ASSERT_GE(total, 3u);

  for (const util::u64 n : {total / 2, total}) {
    opt.faults = "dev.launch=hit:" + std::to_string(n);
    const auto faulted = cof::run_search_streaming(c.cfg, c.file, opt);
    EXPECT_EQ(faulted.records, clean.records) << "hit:" << n;
    EXPECT_EQ(fault::stats("dev.launch").injected, 1u) << "hit:" << n;
  }
}

/// The index cache sites inject once per chunk plus once for the header, so
/// hit-1/mid/last land at the start, middle and end of the .cofidx
/// write/read. Every landing must end in a clean site-named error — and a
/// failed persist must not leave a cache file behind for later runs to
/// trust.
TEST(FaultSites, IndexPersistAndLoadFailCleanAtEveryHit) {
  temp_dir dir;
  const auto c = make_case(dir, 110, 6);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const std::string index_path = (dir.path / "g.cofidx").string();

  // Learn each site's hit count with a never-firing plan: one cold run
  // (build + persist) and one warm run (load).
  opt.faults = "index.persist=hit:1000000000";
  const auto cold = run_warm(c.cfg, index_path, opt);
  const util::u64 persist_hits = fault::stats("index.persist").hits;
  opt.faults = "index.load=hit:1000000000";
  const auto warm = run_warm(c.cfg, index_path, opt);
  const util::u64 load_hits = fault::stats("index.load").hits;
  EXPECT_EQ(warm.outcome.records, cold.outcome.records);
  ASSERT_GE(persist_hits, 3u);
  ASSERT_GE(load_hits, 3u);

  for (const util::u64 n : {util::u64{1}, persist_hits / 2, persist_hits}) {
    fs::remove(index_path);  // force the cold build-and-persist path
    opt.faults = "index.persist=hit:" + std::to_string(n);
    try {
      (void)run_warm(c.cfg, index_path, opt);
      FAIL() << "index.persist hit:" << n << ": expected a clean failure";
    } catch (const fault::injected_error& e) {
      EXPECT_EQ(e.site(), std::string("index.persist")) << "hit:" << n;
    }
    EXPECT_FALSE(fs::exists(index_path)) << "hit:" << n;
  }

  opt.faults.clear();
  (void)run_warm(c.cfg, index_path, opt);  // rebuild the cache
  for (const util::u64 n : {util::u64{1}, load_hits / 2, load_hits}) {
    opt.faults = "index.load=hit:" + std::to_string(n);
    try {
      (void)run_warm(c.cfg, index_path, opt);
      FAIL() << "index.load hit:" << n << ": expected a clean failure";
    } catch (const fault::injected_error& e) {
      EXPECT_EQ(e.site(), std::string("index.load")) << "hit:" << n;
    }
  }
  EXPECT_EQ(spill_files_for_this_pid(), 0u);
}

/// A fault plan that exhausts the bounded retries must end in a clean,
/// site-attributable error — not a livelock. `always` keeps firing through
/// every retry.
TEST(FaultSites, ExhaustedRetriesFailCleanNotForever) {
  temp_dir dir;
  const auto c = make_case(dir, 103, 4);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};

  opt.faults = "dev.alloc=always";
  EXPECT_THROW((void)cof::run_search_streaming(c.cfg, c.file, opt),
               fault::injected_error);
  EXPECT_EQ(spill_files_for_this_pid(), 0u);

  // entry.clamp=always forces the overflow path on every attempt; the
  // attempt bound turns it into the historical overflow error.
  opt.faults = "entry.clamp=always";
  EXPECT_THROW((void)cof::run_search_streaming(c.cfg, c.file, opt),
               cof::entry_overflow_error);
  EXPECT_EQ(spill_files_for_this_pid(), 0u);
}

/// Identical fault plans must produce identical outcomes (the registry's
/// determinism carried through the whole engine). prob mode may or may not
/// exhaust the bounded spill retries — but two runs with the same seed must
/// agree on which.
TEST(FaultSites, DeterministicAcrossRuns) {
  temp_dir dir;
  const auto c = make_case(dir, 104, 6);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 7000};
  opt.faults = "spill.write=prob:0.4:7";

  struct outcome {
    bool threw = false;
    std::string error;
    std::vector<cof::ot_record> records;
    util::u64 spill_retries = 0;
    bool operator==(const outcome&) const = default;
  };
  auto run = [&] {
    outcome o;
    try {
      auto r = cof::run_search_streaming(c.cfg, c.file, opt);
      o.records = std::move(r.records);
      o.spill_retries = r.metrics.recovery.spill_retries;
    } catch (const std::exception& e) {
      o.threw = true;
      o.error = e.what();
    }
    return o;
  };
  const outcome a = run();
  const outcome b = run();
  EXPECT_TRUE(a == b) << "prob-mode fault plan not reproducible";
}

// --- shard-degradation sites -------------------------------------------------
//
// Multi-device runs add per-device fault targeting (`site@N` kills only the
// consumers bound to shard ordinal N). The contract mirrors the
// single-device matrix — a partial failure degrades to the survivors
// byte-identically, a total failure surfaces the injected site cleanly with
// no spill leftovers.

struct shard_fault_case {
  const char* site;  // per-device site to kill ordinal 1 with (@1=always)
};

class ShardFaults : public ::testing::TestWithParam<shard_fault_case> {};

/// Killing exactly one device of a two-device set (site@1=always: every
/// alloc/launch on ordinal 1 fails, forever) must degrade the run to the
/// survivor with byte-identical records, mark the dead shard in the
/// outcome, and leave no spill files behind.
TEST_P(ShardFaults, OneDeviceDyingDegradesToSurvivorsByteIdentically) {
  const std::string site = GetParam().site;
  temp_dir dir;
  const auto c = make_case(dir, 114, 6);

  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 6000};
  opt.num_devices = 2;
  const auto clean = cof::run_search_streaming(c.cfg, c.file, opt);
  ASSERT_FALSE(clean.records.empty());
  ASSERT_EQ(clean.device_shards.size(), 2u);
  EXPECT_FALSE(clean.device_shards[0].failed);
  EXPECT_FALSE(clean.device_shards[1].failed);

  const util::usize spills_before = spill_files_for_this_pid();
  opt.faults = site + "@1=always";
  const auto degraded = cof::run_search_streaming(c.cfg, c.file, opt);
  EXPECT_EQ(degraded.records, clean.records) << site;
  ASSERT_EQ(degraded.device_shards.size(), 2u);
  EXPECT_FALSE(degraded.device_shards[0].failed) << site;
  EXPECT_TRUE(degraded.device_shards[1].failed) << site;
  // The survivor did real work, and the per-shard counters still account
  // for every take (a chunk the dead device took before dying is counted
  // there AND on the survivor that re-ran it after reassignment).
  EXPECT_GE(degraded.device_shards[0].chunks, 1u) << site;
  util::u64 taken = 0;
  for (const auto& ds : degraded.device_shards) taken += ds.chunks;
  EXPECT_EQ(taken, degraded.metrics.chunks) << site;
  EXPECT_GE(fault::stats(site + "@1").injected, 1u) << site;
  EXPECT_EQ(spill_files_for_this_pid(), spills_before) << site;
}

INSTANTIATE_TEST_SUITE_P(PerDeviceSites, ShardFaults,
                         ::testing::Values(shard_fault_case{"dev.alloc"},
                                           shard_fault_case{"dev.launch"}),
                         [](const ::testing::TestParamInfo<shard_fault_case>&
                                info) {
                           std::string name = info.param.site;
                           for (auto& ch : name) {
                             if (ch == '.') ch = '_';
                           }
                           return name;
                         });

/// A launch fault that keeps firing past the bounded retries on a device
/// mid-run (not dead on arrival) must hand the in-flight chunk to the
/// survivor — the reassignment counter proves the degradation path ran,
/// and the records still match.
TEST(ShardFaults, MidRunLaunchDeathReassignsPendingWork) {
  temp_dir dir;
  const auto c = make_case(dir, 115, 6);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 6000};
  opt.num_devices = 2;
  const auto clean = cof::run_search_streaming(c.cfg, c.file, opt);
  ASSERT_FALSE(clean.records.empty());

  // dev.launch only fires at kernel launch, so device 1 builds its
  // pipeline fine, takes work, burns the bounded retries (each rebuild
  // succeeds — dev.alloc is not armed), then degrades: the full
  // retry-then-degrade arc, not dead-on-arrival.
  opt.faults = "dev.launch@1=always";
  const auto degraded = cof::run_search_streaming(c.cfg, c.file, opt);
  EXPECT_EQ(degraded.records, clean.records);
  EXPECT_TRUE(degraded.device_shards[1].failed);
  if (degraded.device_shards[1].chunks != 0) {
    // Device 1 took work before dying: that work must have been reassigned.
    EXPECT_GE(degraded.shard_reassigns, 1u);
  }
}

/// When every device of the set dies the run must fail with the injected
/// site's clean error — not a hang — and the unwound spill writers must
/// leave nothing in the temp dir.
TEST(ShardFaults, EveryDeviceDeadFailsCleanWithNoSpillLeftovers) {
  temp_dir dir;
  const auto c = make_case(dir, 116, 6);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 6000};
  opt.num_devices = 2;
  opt.faults = "dev.launch=always";  // unqualified: every device, every hit
  const util::usize spills_before = spill_files_for_this_pid();
  try {
    (void)cof::run_search_streaming(c.cfg, c.file, opt);
    FAIL() << "expected a clean failure once no device survives";
  } catch (const fault::injected_error& e) {
    EXPECT_EQ(e.site(), std::string("dev.launch"));
  }
  EXPECT_EQ(spill_files_for_this_pid(), spills_before);
}

/// Shared-queue deaths: a dead device's consumers push their chunks back
/// onto the one chunk queue. Whether the device had two consumers or was one
/// of three, the survivors return the clean records, only the dead device is
/// marked failed, every take is accounted for (each push-back costs one more
/// take), and no spill file is left behind.
struct queue_death_case {
  util::usize devices;
  util::usize queues;
  util::usize dead;  // ordinal killed with dev.launch@dead=always
};

class SharedQueueDeaths : public ::testing::TestWithParam<queue_death_case> {};

TEST_P(SharedQueueDeaths, SurvivorsFinishByteIdentically) {
  const auto& tc = GetParam();
  temp_dir dir;
  const auto c = make_case(dir, 119, 6);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 6000};
  opt.num_devices = tc.devices;
  opt.num_queues = tc.queues;
  const auto clean = cof::run_search_streaming(c.cfg, c.file, opt);
  ASSERT_FALSE(clean.records.empty());
  EXPECT_EQ(clean.shard_reassigns, 0u);

  const util::usize spills_before = spill_files_for_this_pid();
  const std::string site = "dev.launch@" + std::to_string(tc.dead);
  opt.faults = site + "=always";
  const auto degraded = cof::run_search_streaming(c.cfg, c.file, opt);
  EXPECT_EQ(degraded.records, clean.records);
  ASSERT_EQ(degraded.device_shards.size(), tc.devices);
  util::usize taken = 0;
  for (util::usize d = 0; d < tc.devices; ++d) {
    EXPECT_EQ(degraded.device_shards[d].failed, d == tc.dead) << "device " << d;
    taken += degraded.device_shards[d].chunks;
  }
  EXPECT_EQ(taken, degraded.metrics.chunks);
  EXPECT_GE(degraded.shard_reassigns, 1u);
  EXPECT_EQ(degraded.metrics.chunks, clean.metrics.chunks + degraded.shard_reassigns);
  EXPECT_GE(fault::stats(site).injected, 1u);
  EXPECT_EQ(spill_files_for_this_pid(), spills_before);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SharedQueueDeaths,
    ::testing::Values(queue_death_case{2, 2, 1}, queue_death_case{3, 1, 1}),
    [](const ::testing::TestParamInfo<queue_death_case>& info) {
      return "devices" + std::to_string(info.param.devices) + "_queues" +
             std::to_string(info.param.queues) + "_dead" +
             std::to_string(info.param.dead);
    });

/// The warm path degrades too: an index-backed query session with a device
/// dying mid-query migrates its slots to the survivors and still returns
/// byte-identical records (bounded per-device attempts, then migration).
TEST(ShardFaults, IndexSessionMigratesOffADeadDevice) {
  temp_dir dir;
  const auto c = make_case(dir, 118, 6);
  const genome::genome_t g = genome::load_genome(c.file);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 6000};
  const auto idx = cof::build_index(g, c.cfg.pattern, opt);

  opt.num_devices = 2;
  cof::index_query_session clean_s(idx, opt);
  const auto clean = clean_s.query(c.cfg.queries);
  ASSERT_FALSE(clean.records.empty());
  EXPECT_EQ(clean_s.failed_devices(), 0u);

  fault::scope guard("dev.launch@1=always");
  cof::index_query_session faulted_s(idx, opt);
  const auto degraded = faulted_s.query(c.cfg.queries);
  EXPECT_EQ(degraded.records, clean.records);
  EXPECT_EQ(faulted_s.failed_devices(), 1u);
  EXPECT_GE(faulted_s.device_migrations(), 1u);
  // The survivor owns every resident chunk now.
  for (const auto& d : faulted_s.device_residency()) {
    if (!d.alive) {
      EXPECT_EQ(d.resident_bytes, 0u);
    }
  }
}

// --- build_index recovery ----------------------------------------------------
//
// build_index runs every chunk through the engine's recovery loop, so one
// injected overflow or device fault, wherever it lands, still builds the
// index a clean run builds; a fault that outlasts the attempt bound fails
// the build naming its site.

void expect_same_index(const cof::genome_index& got, const cof::genome_index& want,
                       const std::string& where) {
  ASSERT_EQ(got.chunks.size(), want.chunks.size()) << where;
  for (util::usize i = 0; i < want.chunks.size(); ++i) {
    const auto& a = got.chunks[i];
    const auto& b = want.chunks[i];
    EXPECT_EQ(a.text, b.text) << where << " chunk " << i;
    EXPECT_EQ(a.words.packed2, b.words.packed2) << where << " chunk " << i;
    EXPECT_EQ(a.words.amb2, b.words.amb2) << where << " chunk " << i;
    EXPECT_EQ(a.words.bases, b.words.bases) << where << " chunk " << i;
    EXPECT_EQ(a.loci, b.loci) << where << " chunk " << i;
    EXPECT_EQ(a.flags, b.flags) << where << " chunk " << i;
  }
}

class BuildIndexFaults : public ::testing::TestWithParam<const char*> {};

/// One fault at the first hit and at a mid hit (learnt with a never-firing
/// plan) builds the clean index.
TEST_P(BuildIndexFaults, OneFaultBuildsTheCleanIndex) {
  const std::string site = GetParam();
  temp_dir dir;
  const auto c = make_case(dir, 120, 6);
  const genome::genome_t g = genome::load_genome(c.file);
  const cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 6000};
  const auto clean = cof::build_index(g, c.cfg.pattern, opt);
  ASSERT_GT(clean.total_hits(), 0u);

  util::u64 total = 0;
  {
    fault::scope guard(site + "=hit:1000000000");
    (void)cof::build_index(g, c.cfg.pattern, opt);
    total = fault::stats(site).hits;
  }
  ASSERT_GE(total, 3u) << site;
  for (const util::u64 n : {util::u64{1}, total / 2}) {
    const std::string where = site + "=hit:" + std::to_string(n);
    fault::scope guard(where);
    const auto built = cof::build_index(g, c.cfg.pattern, opt);
    expect_same_index(built, clean, where);
    EXPECT_EQ(fault::stats(site).injected, 1u) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Sites, BuildIndexFaults,
                         ::testing::Values("dev.alloc", "dev.launch", "entry.clamp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (auto& ch : name) {
                             if (ch == '.') ch = '_';
                           }
                           return name;
                         });

/// A launch that always fails spends the bounded attempts and fails the
/// build with the site's error.
TEST(BuildIndexFaults, LaunchAlwaysFailsNamingTheSite) {
  temp_dir dir;
  const auto c = make_case(dir, 121, 6);
  const genome::genome_t g = genome::load_genome(c.file);
  const cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 6000};
  fault::scope guard("dev.launch=always");
  try {
    (void)cof::build_index(g, c.cfg.pattern, opt);
    FAIL() << "expected injected_error at dev.launch";
  } catch (const fault::injected_error& e) {
    EXPECT_EQ(e.site(), std::string("dev.launch"));
  }
  EXPECT_EQ(fault::stats("dev.launch").injected, cof::recovery::kMaxDeviceAttempts);
}

/// A warm run on a cache miss builds its index through build_index, so it
/// recovers from a device fault like a cold run: its records match, and the
/// .cofidx it leaves answers a clean warm run identically.
TEST(BuildIndexFaults, CacheMissRecoversAndPersistsACleanIndex) {
  temp_dir dir;
  const auto c = make_case(dir, 122, 6);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  const auto clean = cof::run_search_streaming(c.cfg, c.file, opt);
  ASSERT_FALSE(clean.records.empty());

  const std::string index_path = (dir.path / "g.cofidx").string();
  opt.faults = "dev.launch=hit:1";
  const auto miss = run_warm(c.cfg, index_path, opt);
  EXPECT_FALSE(miss.resolved.cache_hit);
  EXPECT_EQ(miss.outcome.records, clean.records);
  EXPECT_EQ(fault::stats("dev.launch").injected, 1u);
  ASSERT_TRUE(fs::exists(index_path));

  opt.faults.clear();
  const auto hit = run_warm(c.cfg, index_path, opt);
  EXPECT_TRUE(hit.resolved.cache_hit);
  EXPECT_EQ(hit.outcome.records, clean.records);
}

// --- serving-mode sites ------------------------------------------------------
//
// serve.admit / serve.batch never fire in a streaming run (they live in the
// serve::server admission layer), so they get their own matrix here instead
// of joining the streaming Values above — same hit-1/mid/last idiom, with
// the hit counts learned via a never-firing plan first.

cof::genome_index serve_index(const stream_case& c) {
  const genome::genome_t g = genome::load_genome(c.file);
  cof::engine_options opt{.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  return cof::build_index(g, c.cfg.pattern, opt);
}

/// An armed serve.admit plan rejects exactly the Nth submit() with a clean
/// site-named error; every other request is admitted and served untouched.
TEST(ServeFaults, AdmitFaultRejectsExactlyTheNthSubmit) {
  temp_dir dir;
  const auto c = make_case(dir, 111, 6);
  const auto idx = serve_index(c);
  const std::string guide = c.cfg.queries[0].seq;

  cof::serve::server_options sopt;
  sopt.engine = {.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  cof::serve::server srv(idx, sopt);
  const auto clean = srv.submit(guide, 2).get().records;
  ASSERT_FALSE(clean.empty());

  fault::scope guard("serve.admit=hit:2");
  auto first = srv.submit(guide, 2);
  try {
    (void)srv.submit(guide, 2);
    FAIL() << "expected injected_error on the second admit";
  } catch (const fault::injected_error& e) {
    EXPECT_EQ(e.site(), std::string("serve.admit"));
  }
  auto third = srv.submit(guide, 2);
  EXPECT_EQ(first.get().records, clean);
  EXPECT_EQ(third.get().records, clean);
  srv.shutdown();
  const auto st = srv.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.served, 3u);
}

/// serve.batch faults at hit 1, mid and last: the bounded batch re-dispatch
/// must recover every landing with byte-identical records — the request
/// stream keeps flowing wherever the fault lands.
TEST(ServeFaults, BatchFaultAtFirstMidAndLastHitRecovers) {
  temp_dir dir;
  const auto c = make_case(dir, 112, 6);
  const auto idx = serve_index(c);
  const std::string guide = c.cfg.queries[0].seq;
  cof::serve::server_options sopt;
  sopt.engine = {.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  constexpr util::usize kRequests = 5;

  // Learn the hit count with a never-firing plan: sequential submit+wait
  // makes one batch (one serve.batch hit) per request.
  std::vector<cof::ot_record> clean;
  util::u64 total = 0;
  {
    fault::scope guard("serve.batch=hit:1000000000");
    cof::serve::server srv(idx, sopt);
    for (util::usize i = 0; i < kRequests; ++i) {
      clean = srv.submit(guide, 2).get().records;
    }
    srv.shutdown();
    total = fault::stats("serve.batch").hits;
  }
  ASSERT_FALSE(clean.empty());
  ASSERT_GE(total, 3u);

  for (const util::u64 n : {util::u64{1}, total / 2, total}) {
    fault::scope guard("serve.batch=hit:" + std::to_string(n));
    cof::serve::server srv(idx, sopt);
    for (util::usize i = 0; i < kRequests; ++i) {
      EXPECT_EQ(srv.submit(guide, 2).get().records, clean) << "hit:" << n;
    }
    srv.shutdown();
    EXPECT_EQ(fault::stats("serve.batch").injected, 1u) << "hit:" << n;
    EXPECT_GE(srv.stats().batch_retries, 1u) << "hit:" << n;
    EXPECT_EQ(srv.stats().failed, 0u) << "hit:" << n;
  }
}

/// serve.batch=always exhausts the bounded re-dispatch attempts: the batch's
/// futures carry the site-named error (no hang, no livelock), and the server
/// keeps serving once the plan is lifted — then shuts down cleanly.
TEST(ServeFaults, ExhaustedBatchRetriesFailTheBatchNotTheServer) {
  temp_dir dir;
  const auto c = make_case(dir, 113, 6);
  const auto idx = serve_index(c);
  const std::string guide = c.cfg.queries[0].seq;
  cof::serve::server_options sopt;
  sopt.engine = {.backend = cof::backend_kind::sycl, .max_chunk = 9000};
  cof::serve::server srv(idx, sopt);
  const auto clean = srv.submit(guide, 2).get().records;
  ASSERT_FALSE(clean.empty());

  {
    fault::scope guard("serve.batch=always");
    auto doomed = srv.submit(guide, 2);
    try {
      (void)doomed.get();
      FAIL() << "expected the batch failure to reach the future";
    } catch (const fault::injected_error& e) {
      EXPECT_EQ(e.site(), std::string("serve.batch"));
    }
  }
  // The plan is gone: the very next request is served normally.
  EXPECT_EQ(srv.submit(guide, 2).get().records, clean);
  srv.shutdown();
  const auto st = srv.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_GE(st.batch_retries, cof::serve::kMaxBatchAttempts - 1);
  EXPECT_EQ(st.served, 2u);
}

// --- overflow recovery property test -----------------------------------------

/// Saturation property: a tiny max_entries must not change a single record
/// on any backend at any queue count — the engine retries with grown
/// capacity (and reports it) until the chunk fits.
TEST(OverflowRecovery, TinyCapMatchesUncappedOnEveryBackendAndQueueCount) {
  temp_dir dir;
  const auto c = make_case(dir, 105, 12);  // dense hits

  for (const auto backend :
       {cof::backend_kind::opencl, cof::backend_kind::sycl,
        cof::backend_kind::sycl_usm, cof::backend_kind::sycl_twobit}) {
    cof::engine_options opt{.backend = backend, .max_chunk = 9000};
    const auto uncapped = cof::run_search_streaming(c.cfg, c.file, opt);
    ASSERT_FALSE(uncapped.records.empty());
    for (const util::usize queues : {1u, 2u, 4u}) {
      opt.num_queues = queues;
      opt.max_entries = 3;
      const auto capped = cof::run_search_streaming(c.cfg, c.file, opt);
      EXPECT_EQ(capped.records, uncapped.records)
          << cof::backend_name(backend) << " queues=" << queues;
      EXPECT_GE(capped.metrics.recovery.overflow_retries, 1u)
          << cof::backend_name(backend) << " queues=" << queues;
      EXPECT_GE(capped.metrics.recovery.recovered_overflows, 1u)
          << cof::backend_name(backend) << " queues=" << queues;
    }
  }
}

// --- true-demand regression --------------------------------------------------

/// The kernels keep advancing the entry counter past the capacity (only the
/// stores are clamped), so the overflow error must report the TRUE demand —
/// exactly the hit count an uncapped run observes — not the clamped
/// capacity. The retry sizing consumes this number; a regression here would
/// silently degrade recovery to blind doubling.
class TrueDemand : public ::testing::TestWithParam<cof::backend_kind> {
 protected:
  std::unique_ptr<cof::device_pipeline> make(
      util::usize max_entries,
      cof::comparer_variant variant = cof::pipeline_options{}.variant) const {
    cof::pipeline_options popt;
    popt.max_entries = max_entries;
    popt.variant = variant;
    switch (GetParam()) {
      case cof::backend_kind::opencl: return cof::make_opencl_pipeline(popt);
      case cof::backend_kind::sycl_usm: return cof::make_sycl_usm_pipeline(popt);
      case cof::backend_kind::sycl_twobit: return cof::make_sycl_twobit_pipeline(popt);
      default: return cof::make_sycl_pipeline(popt);
    }
  }
};

TEST_P(TrueDemand, OverflowErrorRoundTripsTheKernelCounter) {
  auto g = fault_genome(107);
  const auto pat = cof::make_pattern("NNNNNNNNNNNNNNNNNNNNNGG");
  const std::string_view seq(g.chroms[0].seq.data(), 9000);

  auto uncapped = make(0);
  uncapped->load_chunk(seq);
  const util::u32 hits = uncapped->run_finder(pat);
  ASSERT_GT(hits, 2u);

  auto capped = make(2);
  capped->load_chunk(seq);
  try {
    (void)capped->run_finder(pat);
    FAIL() << "expected entry_overflow_error";
  } catch (const cof::entry_overflow_error& e) {
    EXPECT_EQ(e.kernel(), "finder");
    EXPECT_EQ(e.required(), hits);  // true demand, not the clamped count
    EXPECT_EQ(e.capacity(), 2u);
  }
}

/// The same round trip for the per-query comparer (opt4) and the batched
/// one (opt6). An all-N pattern and all-N queries make every position a hit
/// on both strands and every hit two entries per query, so a cap of exactly
/// the finder's hits lets the finder fit and overflows the comparers: opt4
/// at its first per-query launch, opt6 at the batch's fetch.
TEST_P(TrueDemand, ComparerOverflowsRoundTripTheirCounters) {
  auto g = fault_genome(108);
  const std::string all_n(23, 'N');
  const auto pat = cof::make_pattern(all_n);
  const std::vector<cof::device_pattern> queries = {cof::make_query(all_n),
                                                    cof::make_query(all_n)};
  const std::vector<util::u16> thresholds = {0, 1};
  const std::string_view seq(g.chroms[0].seq.data(), 3000);

  for (const auto variant : {cof::comparer_variant::opt4, cof::comparer_variant::opt6}) {
    const std::string where = std::string("variant=") + cof::comparer_variant_name(variant);
    const bool batched = variant == cof::comparer_variant::opt6;
    auto uncapped = make(0, variant);
    uncapped->load_chunk(seq);
    const util::u32 hits = uncapped->run_finder(pat);
    const util::usize first = uncapped->run_comparers({queries[0]}, {thresholds[0]}).size();
    const util::usize all = uncapped->run_comparers(queries, thresholds).size();
    ASSERT_GT(first, hits) << where;

    auto capped = make(hits, variant);
    capped->load_chunk(seq);
    ASSERT_EQ(capped->run_finder(pat), hits) << where;
    try {
      (void)capped->run_comparers(queries, thresholds);
      FAIL() << "expected entry_overflow_error, " << where;
    } catch (const cof::entry_overflow_error& e) {
      EXPECT_EQ(e.kernel(), batched ? "comparer/batch" : "comparer") << where;
      EXPECT_EQ(e.required(), batched ? all : first) << where;
      EXPECT_EQ(e.capacity(), hits) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, TrueDemand,
                         ::testing::Values(cof::backend_kind::opencl,
                                           cof::backend_kind::sycl,
                                           cof::backend_kind::sycl_usm,
                                           cof::backend_kind::sycl_twobit));

}  // namespace
