// Flight-recorder suite: the always-on postmortem ring. Covers the arming
// refcount (disarmed probes record nothing; nested scopes restore state),
// armed-but-untraced capture (the ring buffers serving-path events with no
// run_scope active), and the acceptance bar — an injected terminal batch
// failure (fault site serve.batch exhausting every dispatch attempt) dumps a
// parseable postmortem JSON that names the fault site, carries the buffered
// events, and embeds a metrics snapshot.
#include <gtest/gtest.h>

#include "gtest_compat.hpp"

#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/index.hpp"
#include "fault/fault.hpp"
#include "genome/synth.hpp"
#include "json_compat.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/common.hpp"

namespace {

using util::u64;
using util::usize;

constexpr const char* kPattern = "NNNNNNNNNNNNNNNNNNNNNGG";

genome::genome_t flight_genome(u64 seed) {
  genome::synth_params p;
  p.assembly = "flight-test";
  p.chromosomes = {{"chrA", 20000}};
  p.seed = seed;
  return genome::generate(p);
}

/// Self-cleaning scratch directory for postmortem dumps.
struct temp_dir {
  std::filesystem::path path;
  explicit temp_dir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           (tag + "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~temp_dir() { std::filesystem::remove_all(path); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct flight_fixture {
  genome::genome_t g;
  cof::genome_index idx;
  std::string guide;

  explicit flight_fixture(u64 seed) : g(flight_genome(seed)) {
    cof::search_config cfg;
    cfg.pattern = kPattern;
    const std::string core = g.chroms[0].seq.substr(512, 20);
    guide = core + "NNN";
    genome::plant_sites(g, core + "NGG", cfg.pattern, 6, 2, seed + 3);
    cof::engine_options bopt;
    bopt.backend = cof::backend_kind::sycl;
    bopt.max_chunk = 8192;
    idx = cof::build_index(g, cfg.pattern, bopt);
  }

  cof::serve::server_options server_options() const {
    cof::serve::server_options sopt;
    sopt.engine.backend = cof::backend_kind::sycl;
    sopt.engine.max_chunk = 8192;
    return sopt;
  }
};

// --- arming semantics --------------------------------------------------------

/// Disarmed and untraced, record() must be a no-op: the ring stays empty.
TEST(Flight, DisarmedProbesRecordNothing) {
  obs::flight::clear();
  ASSERT_FALSE(obs::flight::armed());
  { obs::span sp("flight.noop", "test"); }
  obs::counter_track("flight.noop.count", 1);
  EXPECT_EQ(obs::flight::buffered(), 0u);
}

/// Armed with NO run_scope active, the same probes land in the flight ring —
/// the recorder captures a crash context even when tracing is off.
TEST(Flight, ArmedCapturesWithoutAnActiveTrace) {
  obs::flight::clear();
  obs::flight::scope armed;
  ASSERT_TRUE(obs::flight::armed());
  { obs::span sp("flight.captured", "test"); }
  obs::counter_track("flight.captured.count", 2);
  EXPECT_GE(obs::flight::buffered(), 2u);
  obs::flight::clear();
}

/// The arm refcount nests: inner scopes do not disarm the outer one, and
/// destruction unwinds back to disarmed.
TEST(Flight, ArmRefcountNests) {
  ASSERT_FALSE(obs::flight::armed());
  {
    obs::flight::scope outer;
    EXPECT_TRUE(obs::flight::armed());
    {
      obs::flight::scope inner;
      EXPECT_TRUE(obs::flight::armed());
    }
    EXPECT_TRUE(obs::flight::armed()) << "inner scope disarmed the outer";
  }
  EXPECT_FALSE(obs::flight::armed());
  obs::flight::clear();
}

// --- postmortem dump ---------------------------------------------------------

/// The acceptance bar: with serve.batch faults injected on EVERY dispatch
/// attempt, the batch fails terminally, and the server's armed flight
/// recorder dumps a postmortem naming the fault site. The dump parses, the
/// reason says the batch exhausted its attempts, the buffered serving-path
/// events are present, and the metrics snapshot rode along.
TEST(Flight, TerminalBatchFailureDumpsParseablePostmortem) {
  flight_fixture fx(601);
  temp_dir tmp("cof_flight");
  obs::flight::clear();
  const u64 dumps_before = obs::flight::dump_count();

  cof::serve::server_options sopt = fx.server_options();
  sopt.postmortem_dir = tmp.path.string();
  cof::serve::server srv(fx.idx, sopt);
  // Warm one request through so the flight ring holds real serving spans.
  ASSERT_FALSE(srv.submit(fx.guide, 2).get().records.empty());

  {
    fault::scope guard("serve.batch=always");
    auto fut = srv.submit(fx.guide, 2);
    EXPECT_THROW((void)fut.get(), fault::injected_error);
  }
  srv.shutdown();

  EXPECT_EQ(obs::flight::dump_count(), dumps_before + 1);
  const std::string dump = read_file(obs::flight::dump_path());
  ASSERT_FALSE(dump.empty()) << "no postmortem at " << obs::flight::dump_path();

  const testjson::jvalue doc = testjson::parse_json(dump);
  const testjson::jvalue& pm = doc.at("postmortem");
  EXPECT_EQ(pm.at("site").str, "serve.batch");
  EXPECT_NE(pm.at("reason").str.find("exhausted"), std::string::npos)
      << "reason: " << pm.at("reason").str;
  EXPECT_GT(pm.at("pid").num, 0.0);
  EXPECT_GT(pm.at("dumped_at_ns").num, 0.0);
  ASSERT_FALSE(doc.at("events").arr.empty()) << "flight ring dumped empty";
  bool saw_serve_event = false;
  for (const auto& ev : doc.at("events").arr) {
    if (ev.has("name") && ev.at("name").str.rfind("serve.", 0) == 0) {
      saw_serve_event = true;
      break;
    }
  }
  EXPECT_TRUE(saw_serve_event) << "no serving-path event in the ring";
  EXPECT_TRUE(doc.at("metrics").has("counters"))
      << "metrics snapshot missing from the postmortem";
  obs::flight::clear();
}

/// A recovered batch (fault fires once, retry succeeds) must NOT dump — the
/// postmortem is reserved for terminal failures.
TEST(Flight, RecoveredBatchDoesNotDump) {
  flight_fixture fx(602);
  temp_dir tmp("cof_flight_ok");
  obs::flight::clear();
  const u64 dumps_before = obs::flight::dump_count();

  cof::serve::server_options sopt = fx.server_options();
  sopt.postmortem_dir = tmp.path.string();
  cof::serve::server srv(fx.idx, sopt);
  {
    fault::scope guard("serve.batch=hit:1");
    EXPECT_FALSE(srv.submit(fx.guide, 2).get().records.empty());
  }
  srv.shutdown();
  EXPECT_EQ(obs::flight::dump_count(), dumps_before);
  obs::flight::clear();
}

}  // namespace
