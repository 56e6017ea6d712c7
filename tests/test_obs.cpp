// Observability tests: trace-event JSON export (schema + per-thread span
// nesting), metrics registry (exact histogram bucket boundaries, reset
// semantics), per-run lifetime (back-to-back runs export independent data),
// concurrent recording from several threads (the `tsan` label re-runs this
// under COF_SANITIZE=thread), and end-to-end engine traces carrying the
// expected span names for every host facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_stream.hpp"
#include "core/index.hpp"
#include "genome/fasta.hpp"
#include "genome/synth.hpp"
#include "json_compat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace {

using namespace cof;
using testjson::events_named;
using testjson::jvalue;
using testjson::parse_json;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundariesAreExclusive) {
  obs::histogram_metric h({50, 100, 250});
  // Bucket i covers [bounds[i-1], bounds[i]): a sample exactly on a bound
  // lands in the bucket ABOVE it; >= last bound is the overflow bucket.
  EXPECT_EQ(h.bucket_of(0), 0u);
  EXPECT_EQ(h.bucket_of(49), 0u);
  EXPECT_EQ(h.bucket_of(50), 1u);
  EXPECT_EQ(h.bucket_of(99), 1u);
  EXPECT_EQ(h.bucket_of(100), 2u);
  EXPECT_EQ(h.bucket_of(249), 2u);
  EXPECT_EQ(h.bucket_of(250), 3u);  // overflow
  EXPECT_EQ(h.bucket_of(~util::u64{0}), 3u);
}

TEST(Histogram, CountsSumMinMax) {
  obs::histogram_metric h({10, 100});
  for (util::u64 s : {0u, 9u, 10u, 50u, 99u, 100u, 5000u}) h.observe(s);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 9 + 10 + 50 + 99 + 100 + 5000);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 5000u);
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0, 9
  EXPECT_EQ(h.bucket_count(1), 3u);  // 10, 50, 99
  EXPECT_EQ(h.bucket_count(2), 2u);  // 100, 5000 (overflow)
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
}

TEST(Histogram, QuantileEmptyAndSingleSample) {
  obs::histogram_metric h({10, 100});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty: no data, report 0
  h.observe(42);
  // One sample: every quantile is that sample (clamped into [min, max]).
  EXPECT_EQ(h.quantile(0.0), 42.0);
  EXPECT_EQ(h.quantile(0.5), 42.0);
  EXPECT_EQ(h.quantile(0.99), 42.0);
  EXPECT_EQ(h.quantile(1.0), 42.0);
}

TEST(Histogram, QuantileInterpolatesAndClampsToObservedRange) {
  obs::histogram_metric h({10, 100, 1000});
  for (util::u64 s = 0; s < 10; ++s) h.observe(s);  // uniform in bucket 0
  // Rank space over n-1: q=0 is the min, q=1 the max — and the linear
  // interpolation inside the [min, 10) bucket lands mid-bucket at p50.
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(1.0), 9.0);  // clamped to the observed max, not 10
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1e-9);
}

TEST(Histogram, QuantileExactBoundarySamplesRoundTrip) {
  obs::histogram_metric h({10, 100});
  h.observe(10);   // exactly on a bound -> bucket above it
  h.observe(100);  // exactly on the last bound -> overflow bucket
  EXPECT_EQ(h.quantile(0.0), 10.0);
  EXPECT_EQ(h.quantile(1.0), 100.0);
}

TEST(Histogram, QuantileOverflowBucketBorrowsObservedMax) {
  obs::histogram_metric h({10});
  h.observe(5);
  h.observe(20);
  h.observe(30);
  // The overflow bucket has no upper bound; the estimate interpolates up
  // to the observed max instead of inventing one.
  EXPECT_EQ(h.quantile(1.0), 30.0);
  EXPECT_LE(h.quantile(0.75), 30.0);
  EXPECT_GE(h.quantile(0.75), 10.0);
}

TEST(SlidingHistogram, ObservationsExpireWithTheWindow) {
  // 4 epochs x 1000 ns: the injected-clock seam drives rotation without
  // wall-time sleeps.
  obs::sliding_histogram w({10, 100}, 4, 1000);
  w.observe(5, 0);
  w.observe(50, 1500);
  EXPECT_EQ(w.count(1500), 2u);
  EXPECT_EQ(w.sum(1500), 55u);
  // now = 4500 (epoch 4): the window covers epochs 1..4, so the epoch-0
  // sample fell out but the epoch-1 sample remains.
  EXPECT_EQ(w.count(4500), 1u);
  EXPECT_EQ(w.sum(4500), 50u);
  // Far future: everything expired; count/quantile drain to zero.
  EXPECT_EQ(w.count(50000), 0u);
  EXPECT_EQ(w.quantile(0.5, 50000), 0.0);
}

TEST(SlidingHistogram, EpochSlotsRotateAndMerge) {
  obs::sliding_histogram w({100}, 3, 1000);
  // One sample per epoch across 8 epochs on 3 slots — each arrival after
  // the third reuses (rotates) the oldest slot.
  for (util::u64 e = 0; e < 8; ++e) w.observe(e * 10, e * 1000);
  // At epoch 7 the window holds epochs 5, 6, 7 -> samples 50, 60, 70.
  EXPECT_EQ(w.count(7000), 3u);
  EXPECT_EQ(w.sum(7000), 50u + 60u + 70u);
  EXPECT_EQ(w.quantile(0.0, 7000), 50.0);
  EXPECT_EQ(w.quantile(1.0, 7000), 70.0);
  w.reset();
  EXPECT_EQ(w.count(7000), 0u);
}

TEST(MetricsRegistry, JsonParsesAndCarriesValues) {
  auto& reg = obs::metrics_registry::global();
  reg.reset();
  reg.counter("t.counter").add(41);
  reg.counter("t.counter").add(1);
  reg.gauge("t.gauge").set(7);
  reg.gauge("t.gauge").set(3);  // max stays 7
  auto& h = reg.histogram("t.hist", {10, 100});
  h.observe(5);
  h.observe(150);

  const jvalue doc = parse_json(reg.json());
  EXPECT_EQ(doc.at("counters").at("t.counter").num, 42);
  EXPECT_EQ(doc.at("gauges").at("t.gauge").at("value").num, 3);
  EXPECT_EQ(doc.at("gauges").at("t.gauge").at("max").num, 7);
  const jvalue& hist = doc.at("histograms").at("t.hist");
  EXPECT_EQ(hist.at("count").num, 2);
  EXPECT_EQ(hist.at("sum").num, 155);
  ASSERT_EQ(hist.at("bounds").arr.size(), 2u);
  ASSERT_EQ(hist.at("counts").arr.size(), 3u);
  EXPECT_EQ(hist.at("counts").arr[0].num, 1);
  EXPECT_EQ(hist.at("counts").arr[2].num, 1);
  reg.reset();
}

TEST(MetricsRegistry, JsonCarriesPercentilesAndWindows) {
  auto& reg = obs::metrics_registry::global();
  reg.reset();
  auto& h = reg.histogram("t.lat", {10, 100});
  for (util::u64 s = 0; s < 10; ++s) h.observe(s);
  auto& w = reg.windowed("t.lat", {10, 100});
  w.observe(7);

  const jvalue doc = parse_json(reg.json());
  const jvalue& hist = doc.at("histograms").at("t.lat");
  EXPECT_EQ(hist.at("p50").num, 5.0);
  EXPECT_TRUE(hist.has("p90"));
  EXPECT_TRUE(hist.has("p95"));
  EXPECT_TRUE(hist.has("p99"));
  const jvalue& win = doc.at("windows").at("t.lat");
  EXPECT_EQ(win.at("count").num, 1.0);
  EXPECT_EQ(win.at("p50").num, 7.0);
  EXPECT_GT(win.at("window_s").num, 0.0);
  reg.reset();
}

TEST(MetricsRegistry, ResetKeepsHandlesValid) {
  auto& reg = obs::metrics_registry::global();
  auto& c = reg.counter("t.reset");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);
  EXPECT_EQ(reg.counter("t.reset").value(), 2u);  // same node
  EXPECT_EQ(&reg.counter("t.reset"), &c);
  reg.reset();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Trace, DisabledRecordsNothing) {
  obs::set_enabled(false);
  obs::trace_clear();
  {
    obs::span sp("ghost", "test");
    obs::counter_track("ghost.counter", 1);
  }
  const jvalue doc = parse_json(obs::trace_json());
  EXPECT_TRUE(events_named(doc, "ghost").empty());
}

TEST(Trace, JsonSchemaAndSpanContent) {
  obs::run_scope scope(true);
  obs::set_thread_name("obs-test-main");
  {
    obs::span sp("outer", "test");
    sp.arg("alpha", 3.5);
    sp.arg("beta", -2);
    obs::span inner("inner", "test");
  }
  obs::async_begin("apair", "test", 9);
  obs::async_end("apair", "test", 9);
  obs::counter_track("level", 4);

  const jvalue doc = parse_json(obs::trace_json());
  ASSERT_TRUE(doc.has("traceEvents"));
  for (const auto& ev : doc.at("traceEvents").arr) {
    ASSERT_TRUE(ev.has("name"));
    ASSERT_TRUE(ev.has("ph"));
    ASSERT_TRUE(ev.has("pid"));
    ASSERT_TRUE(ev.has("tid"));
  }

  const auto outer = events_named(doc, "outer");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0]->at("ph").str, "X");
  EXPECT_EQ(outer[0]->at("cat").str, "test");
  EXPECT_GE(outer[0]->at("dur").num, 0.0);
  EXPECT_EQ(outer[0]->at("args").at("alpha").num, 3.5);
  EXPECT_EQ(outer[0]->at("args").at("beta").num, -2);

  EXPECT_EQ(events_named(doc, "apair").size(), 2u);  // 'b' + 'e'
  const auto counters = events_named(doc, "level");
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0]->at("ph").str, "C");

  // Thread-name metadata record for the calling thread.
  bool named = false;
  for (const auto* m : events_named(doc, "thread_name")) {
    named |= m->at("ph").str == "M" &&
             m->at("args").at("name").str == "obs-test-main";
  }
  EXPECT_TRUE(named);
}

TEST(Trace, FlowEventSchemaRoundTrips) {
  obs::run_scope scope(true);
  {
    obs::span sp("origin", "flowtest");
    obs::flow_begin("req", "flowtest", 7);
  }
  {
    obs::span sp("relay", "flowtest");
    obs::flow_step("req", "flowtest", 7);
  }
  {
    obs::span sp("sink", "flowtest");
    obs::flow_end("req", "flowtest", 7);
  }
  const jvalue doc = parse_json(obs::trace_json());
  const auto flows = events_named(doc, "req");
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[0]->at("ph").str, "s");
  EXPECT_EQ(flows[1]->at("ph").str, "t");
  EXPECT_EQ(flows[2]->at("ph").str, "f");
  for (const auto* f : flows) {
    EXPECT_EQ(f->at("id").num, 7.0);
    EXPECT_EQ(f->at("cat").str, "flowtest");
  }
  // Flow ends bind to the enclosing slice's end — the Perfetto convention.
  EXPECT_EQ(flows[2]->at("bp").str, "e");
  EXPECT_FALSE(flows[0]->has("bp"));
  // The chain is causally ordered in export (stable ts sort).
  EXPECT_LE(flows[0]->at("ts").num, flows[1]->at("ts").num);
  EXPECT_LE(flows[1]->at("ts").num, flows[2]->at("ts").num);
}

TEST(Trace, RunScopesNestWithoutClearingTheOuterRun) {
  ASSERT_FALSE(obs::enabled());
  {
    obs::run_scope outer(true);
    obs::metrics_registry::global().counter("t.nest").add(3);
    { obs::span sp("outer-span", "nesttest"); }
    {
      // A nested scope (the per-query engine scope inside a serving
      // daemon's scope) must neither clear the rings/registry nor disable
      // tracing when it exits.
      obs::run_scope inner(true);
      EXPECT_TRUE(obs::enabled());
      EXPECT_EQ(obs::metrics_registry::global().counter("t.nest").value(), 3u)
          << "nested entry cleared the outer run's metrics";
    }
    EXPECT_TRUE(obs::enabled()) << "nested exit disabled the outer run";
    const jvalue doc = parse_json(obs::trace_json());
    EXPECT_EQ(events_named(doc, "outer-span").size(), 1u)
        << "nested scope cleared the outer run's trace";
    obs::metrics_registry::global().reset();
  }
  EXPECT_FALSE(obs::enabled()) << "outermost exit must restore disabled";
}

TEST(Trace, SpanNestingWellFormedPerThread) {
  obs::run_scope scope(true);
  auto emit_nested = [] {
    for (int i = 0; i < 50; ++i) {
      obs::span a("depth0", "nest");
      {
        obs::span b("depth1", "nest");
        obs::span c("depth2", "nest");
      }
      obs::span d("depth1b", "nest");
    }
  };
  std::thread t1(emit_nested), t2(emit_nested);
  t1.join();
  t2.join();

  // Within each thread, complete spans must nest like a call stack: sorted
  // by start time, every span either contains or is disjoint from the next
  // (no partial overlap).
  const jvalue doc = parse_json(obs::trace_json());
  std::map<double, std::vector<std::pair<double, double>>> by_tid;
  for (const auto& ev : doc.at("traceEvents").arr) {
    if (ev.at("ph").str != "X" || ev.at("cat").str != "nest") continue;
    by_tid[ev.at("tid").num].push_back(
        {ev.at("ts").num, ev.at("ts").num + ev.at("dur").num});
  }
  ASSERT_EQ(by_tid.size(), 2u);
  for (auto& [tid, spans] : by_tid) {
    ASSERT_EQ(spans.size(), 200u);  // 4 spans x 50 iterations
    // Start ascending, end DESCENDING: on identical start times the
    // enclosing span must come first for the stack check below.
    std::sort(spans.begin(), spans.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first
                                          : a.second > b.second;
              });
    std::vector<std::pair<double, double>> stack;
    for (const auto& sp : spans) {
      while (!stack.empty() && sp.first >= stack.back().second) stack.pop_back();
      if (!stack.empty()) {
        // Open ancestor: must fully contain this span.
        EXPECT_LE(sp.second, stack.back().second + 1e-6);
      }
      stack.push_back(sp);
    }
  }
}

TEST(Trace, ConcurrentRecordingFromFourThreads) {
  // num_queues=4-shaped load: four writer threads hammer spans, counters,
  // and registry metrics while the subsystem is live. The tsan ctest label
  // re-runs this under COF_SANITIZE=thread.
  obs::run_scope scope(true);
  auto& reg = obs::metrics_registry::global();
  auto& hist = reg.histogram("t.mt_hist", obs::default_latency_bounds_us());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &reg, &hist] {
      obs::set_thread_name("writer-" + std::to_string(t));
      for (int i = 0; i < 5000; ++i) {
        obs::span sp("mt", "test");
        sp.arg("i", i);
        obs::counter_track("mt.count", i);
        reg.counter("t.mt_counter").add(1);
        reg.gauge("t.mt_gauge").set(i);
        hist.observe(static_cast<util::u64>(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(reg.counter("t.mt_counter").value(), 4u * 5000u);
  EXPECT_EQ(hist.count(), 4u * 5000u);
  // Export must parse even after ring wrap-around (rings drop oldest).
  const jvalue doc = parse_json(obs::trace_json());
  EXPECT_FALSE(events_named(doc, "mt").empty());
}

TEST(Trace, BackToBackRunsAreIndependent) {
  std::string first, second;
  {
    obs::run_scope scope(true);
    obs::metrics_registry::global().counter("t.run").add(11);
    obs::span sp("first-run-span", "test");
    sp.arg("x", 1);
  }
  // run_scope cleared on entry, so the export has to happen inside; emulate
  // the engine: export before the scope closes.
  {
    obs::run_scope scope(true);
    { obs::span sp("first-run-span", "test"); }
    first = obs::trace_json();
    EXPECT_EQ(obs::metrics_registry::global().counter("t.run").value(), 0u)
        << "run_scope must reset metric values from the previous run";
  }
  {
    obs::run_scope scope(true);
    { obs::span sp("second-run-span", "test"); }
    second = obs::trace_json();
  }
  const jvalue doc1 = parse_json(first);
  const jvalue doc2 = parse_json(second);
  EXPECT_EQ(events_named(doc1, "first-run-span").size(), 1u);
  EXPECT_TRUE(events_named(doc1, "second-run-span").empty());
  EXPECT_EQ(events_named(doc2, "second-run-span").size(), 1u);
  EXPECT_TRUE(events_named(doc2, "first-run-span").empty())
      << "second run's trace must not carry the first run's spans";
}

// ---------------------------------------------------------------------------
// Engine integration: a traced streaming run must produce a parseable
// Chrome trace carrying the full set of pipeline span names, for every
// host facade, plus the metrics snapshot and the stage-time breakdown.
// ---------------------------------------------------------------------------

struct temp_dir {
  std::filesystem::path path;
  temp_dir() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("cof_obs_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~temp_dir() { std::filesystem::remove_all(path); }
};

genome::genome_t obs_genome() {
  genome::synth_params p;
  p.assembly = "obs-test";
  p.chromosomes = {{"chrA", 40000}, {"chrB", 20000}};
  p.seed = 977;
  auto g = genome::generate(p);
  // Plant the example input's first query (+TGG PAM) throughout both
  // chromosomes so every chunk produces comparer entries — the format and
  // spill spans only exist on chunks that yield records.
  const std::string site = "GGCCGACCTGTCGCTGACGCTGG";
  for (auto& chrom : g.chroms) {
    for (usize pos = 500; pos + site.size() < chrom.seq.size(); pos += 2000) {
      chrom.seq.replace(pos, site.size(), site);
    }
  }
  return g;
}

class FacadeTrace : public ::testing::TestWithParam<backend_kind> {};

TEST_P(FacadeTrace, StreamingRunEmitsAllPipelineSpans) {
  temp_dir dir;
  const auto g = obs_genome();
  const auto fasta = (dir.path / "g.fa").string();
  genome::write_fasta_file(fasta, g.chroms);
  const auto trace_path = (dir.path / "trace.json").string();
  const auto metrics_path = (dir.path / "metrics.json").string();

  auto cfg = parse_input(example_input("<mem>"));
  engine_options opt;
  opt.backend = GetParam();
  opt.max_chunk = 8192;
  opt.num_queues = 2;
  opt.trace_out = trace_path;
  opt.metrics_json = metrics_path;
  const auto out = run_search_streaming(cfg, fasta, opt);
  EXPECT_FALSE(obs::enabled()) << "run_scope must restore the disabled state";

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const jvalue doc = parse_json(ss.str());

  for (const char* name :
       {"decode", "queue.push", "queue.pop", "h2d.chunk", "finder",
        "comparer.batch", "fetch", "format", "spill", "merge"}) {
    EXPECT_FALSE(events_named(doc, name).empty())
        << "missing span '" << name << "' for backend "
        << backend_name(GetParam());
  }

  // The metrics snapshot parses and carries the streaming instruments.
  std::ifstream min(metrics_path);
  ASSERT_TRUE(min.good());
  std::stringstream ms;
  ms << min.rdbuf();
  const jvalue mdoc = parse_json(ms.str());
  EXPECT_EQ(mdoc.at("counters").at("stream.chunks").num,
            static_cast<double>(out.metrics.chunks));
  EXPECT_TRUE(mdoc.at("histograms").has("stream.device_us"));
  EXPECT_TRUE(mdoc.at("gauges").has("stream.queue_depth"));

  // Stage breakdown: one entry per queue, and device time was measured.
  ASSERT_EQ(out.queue_stages.size(), 2u);
  EXPECT_GT(out.stage_times.device_s, 0.0);
  EXPECT_GT(out.stage_times.decode_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllFacades, FacadeTrace,
                         ::testing::Values(backend_kind::sycl,
                                           backend_kind::sycl_usm,
                                           backend_kind::sycl_twobit,
                                           backend_kind::opencl));

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// run_search runs the in-memory genome through the streaming runner, so a
/// traced run carries the runner's span names.
TEST(ObsEngine, TracedRunSearchEmitsStreamingSpans) {
  temp_dir dir;
  const auto g = obs_genome();
  auto cfg = parse_input(example_input("<mem>"));
  engine_options opt;
  opt.backend = backend_kind::sycl;
  opt.max_chunk = 8192;
  opt.trace_out = (dir.path / "trace.json").string();
  const auto out = run_search(cfg, g, opt);
  ASSERT_FALSE(out.records.empty());
  const jvalue doc = parse_json(slurp(opt.trace_out));
  for (const char* name : {"decode", "queue.pop", "finder", "comparer.batch",
                           "format", "spill", "merge"}) {
    EXPECT_FALSE(events_named(doc, name).empty()) << "missing span '" << name << "'";
  }
}

/// The serial reference shares the run epilogue: its metrics snapshot and
/// trace are written like every device run's.
TEST(ObsEngine, SerialRunSearchWritesTraceAndMetrics) {
  temp_dir dir;
  const auto g = obs_genome();
  auto cfg = parse_input(example_input("<mem>"));
  engine_options opt;
  opt.backend = backend_kind::serial;
  opt.trace_out = (dir.path / "trace.json").string();
  opt.metrics_json = (dir.path / "metrics.json").string();
  (void)run_search(cfg, g, opt);
  ASSERT_TRUE(std::filesystem::exists(opt.metrics_json));
  ASSERT_TRUE(std::filesystem::exists(opt.trace_out));
  EXPECT_TRUE(parse_json(slurp(opt.metrics_json)).has("counters"));
  EXPECT_TRUE(parse_json(slurp(opt.trace_out)).has("traceEvents"));
}

/// A counting warm query folds its kernel profiles into the trace, like
/// run_search's warm branch: kernel/<name>/... counter tracks.
TEST(ObsEngine, RunQueryTraceCarriesKernelTracks) {
  temp_dir dir;
  const auto g = obs_genome();
  auto cfg = parse_input(example_input("<mem>"));
  engine_options opt;
  opt.backend = backend_kind::sycl;
  opt.max_chunk = 8192;
  const genome_index idx = build_index(g, cfg.pattern, opt);
  prof::profiler profiler;
  opt.counting = true;
  opt.profiler = &profiler;
  opt.trace_out = (dir.path / "trace.json").string();
  const auto out = run_query(idx, cfg.queries, opt);
  ASSERT_FALSE(out.records.empty());
  ASSERT_FALSE(profiler.kernels().empty());
  const jvalue doc = parse_json(slurp(opt.trace_out));
  for (const auto& [kernel, profile] : profiler.kernels()) {
    EXPECT_FALSE(events_named(doc, "kernel/" + kernel + "/launches").empty())
        << "missing kernel track for " << kernel;
  }
}

TEST(ObsEngine, UntracedRunLeavesSubsystemDisabled) {
  temp_dir dir;
  const auto g = obs_genome();
  const auto fasta = (dir.path / "g.fa").string();
  genome::write_fasta_file(fasta, g.chroms);
  auto cfg = parse_input(example_input("<mem>"));
  engine_options opt;
  opt.backend = backend_kind::sycl;
  opt.max_chunk = 8192;
  obs::trace_clear();
  const auto out = run_search_streaming(cfg, fasta, opt);
  EXPECT_FALSE(obs::enabled());
  // Thread-name metadata ('M') persists across clears by design; no data
  // events may have been recorded.
  const jvalue doc = parse_json(obs::trace_json());
  for (const auto& ev : doc.at("traceEvents").arr) {
    EXPECT_EQ(ev.at("ph").str, "M") << "unexpected event: " << ev.at("name").str;
  }
  // The always-on stage breakdown is still populated.
  EXPECT_GT(out.stage_times.device_s, 0.0);
}

TEST(ObsEngine, BackToBackTracedRunsExportIndependentFiles) {
  temp_dir dir;
  const auto g = obs_genome();
  const auto fasta = (dir.path / "g.fa").string();
  genome::write_fasta_file(fasta, g.chroms);
  auto cfg = parse_input(example_input("<mem>"));
  engine_options opt;
  opt.backend = backend_kind::sycl;
  opt.max_chunk = 8192;

  opt.trace_out = (dir.path / "t1.json").string();
  opt.metrics_json = (dir.path / "m1.json").string();
  const auto r1 = run_search_streaming(cfg, fasta, opt);
  opt.trace_out = (dir.path / "t2.json").string();
  opt.metrics_json = (dir.path / "m2.json").string();
  const auto r2 = run_search_streaming(cfg, fasta, opt);
  EXPECT_EQ(r1.records, r2.records);

  const jvalue m1 = parse_json(slurp((dir.path / "m1.json").string()));
  const jvalue m2 = parse_json(slurp((dir.path / "m2.json").string()));
  // Identical runs, independent registries: the second snapshot's chunk
  // counter covers run 2 only, not runs 1+2 accumulated.
  EXPECT_EQ(m1.at("counters").at("stream.chunks").num,
            m2.at("counters").at("stream.chunks").num);
  const jvalue t2 = parse_json(slurp((dir.path / "t2.json").string()));
  ASSERT_FALSE(t2.at("traceEvents").arr.empty());
}

/// The merge shows in --metrics-json alone: one stream.merge_us sample per
/// streamed run and the bytes its spill runs took, beside stream.spill_runs.
TEST(ObsEngine, MetricsJsonCarriesTheMerge) {
  temp_dir dir;
  const auto g = obs_genome();
  const auto fasta = (dir.path / "g.fa").string();
  genome::write_fasta_file(fasta, g.chroms);
  auto cfg = parse_input(example_input("<mem>"));
  engine_options opt;
  opt.backend = backend_kind::sycl;
  opt.max_chunk = 8192;
  opt.num_queues = 2;
  opt.metrics_json = (dir.path / "metrics.json").string();
  const auto out = run_search_streaming(cfg, fasta, opt);
  ASSERT_FALSE(out.records.empty());
  const jvalue m = parse_json(slurp(opt.metrics_json));
  EXPECT_EQ(m.at("histograms").at("stream.merge_us").at("count").num, 1.0);
  EXPECT_GT(m.at("counters").at("stream.spill_bytes").num, 0.0);
  EXPECT_EQ(m.at("counters").at("stream.spill_runs").num,
            static_cast<double>(out.spill_runs));
}

TEST(ObsLog, ThreadOrdinalsAreStableAndDistinct) {
  const unsigned self = util::thread_ordinal();
  EXPECT_EQ(util::thread_ordinal(), self);  // stable within a thread
  unsigned other = self;
  std::thread t([&other] { other = util::thread_ordinal(); });
  t.join();
  EXPECT_NE(other, self);  // distinct across threads
}

}  // namespace
