// serve_open: a serve::server over a CGG-PAM index of the same genome, driven
// open-loop — independent users arriving at seeded Poisson times at a fixed
// rate, whatever the server's state. The selective PAM keeps per-request
// device time small, so admission, coalescing, queueing and demux are a
// visible share; the resident budget is half the index's footprint, so the
// residency layer evicts and re-uploads as it must once an assembly outgrows
// device memory. Decode and finder do no work here, so it is the workload on
// which a change to either must show no effect.
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "core/index.hpp"
#include "harness.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr usize kGuides = 32;
/// Set-up repetitions; setup_s is their median (one set-up is ~0.6 s, too
/// short for a single sample to ride out a host hiccup).
constexpr usize kSetupReps = 5;
/// Requests in the traced phase of a traced run.
constexpr usize kTraceRequests = 100;
/// Single-guide sweeps the traced run replays through the layer functions.
constexpr usize kReplaySweeps = 16;
/// Validity of an open-loop run: the generator may submit at most this late
/// at p99 (scheduling jitter on a loaded 4-CPU host reaches ~15 ms; latency
/// is charged from the due time either way), and at most one full batch may
/// be queued when it stops.
constexpr double kMaxLateP99Ms = 50.0;

struct serve_setup {
  std::unique_ptr<cof::genome_index> idx;
  std::unique_ptr<cof::serve::server> srv;
  double build_s = 0, save_s = 0, load_s = 0, open_s = 0;
  usize footprint = 0;
  double total() const { return build_s + save_s + load_s + open_s; }
};

/// Program calls before the timed loop: build + save + load the CGG index,
/// one full residency sweep to learn its footprint, then the server opened
/// with half that budget and one request served.
serve_setup set_up(const inputs& in, const std::vector<std::vector<cof::ot_record>>& slices,
                   const std::string& path, result& r) {
  serve_setup s;
  const cof::engine_options opt;
  double t = now_s();
  const cof::genome_index built = cof::build_index(in.g, in.cfg.pattern, opt);
  s.build_s = now_s() - t;
  t = now_s();
  cof::save_index(path, built);
  s.save_s = now_s() - t;
  t = now_s();
  s.idx = std::make_unique<cof::genome_index>(cof::load_index(path));
  s.load_s = now_s() - t;
  t = now_s();
  {
    cof::index_query_session probe(*s.idx, opt);
    const auto first = probe.query({in.cfg.queries.front()});
    ++r.attempted;
    r.check(first.records == slices[0], "serve_open footprint sweep");
    s.footprint = probe.resident_bytes();
  }
  cof::serve::server_options so;
  so.engine.resident_bytes = s.footprint / 2;
  s.srv = std::make_unique<cof::serve::server>(*s.idx, so);
  const auto& q = in.cfg.queries.front();
  const auto res = s.srv->submit(q.seq, q.max_mismatches).get();
  ++r.attempted;
  r.check(res.records == slices[0], "serve_open first request");
  s.open_s = now_s() - t;
  return s;
}

struct phase {
  std::vector<double> latency_ms;  // due time -> future fulfilled
  std::vector<double> late_ms;     // generator's submit start - due time
  std::vector<double> admit_us;    // submit() call
  std::vector<cof::serve::request_timing> timing;
  double queue_depth_end = 0;
  double served_rps = 0;
};

/// One open-loop phase of `n` requests at `rate` per second. The calling
/// thread generates; one collector thread waits on the futures in order.
phase open_loop(cof::serve::server& srv, const inputs& in,
                const std::vector<std::vector<cof::ot_record>>& slices, double rate,
                usize n, u64 seed, tracer* tr, result& r) {
  struct pending {
    u32 guide = 0;
    double due = 0;
    bool admitted = false;
    std::future<cof::serve::request_result> fut;
  };
  std::vector<pending> reqs(n);
  std::vector<double> done(n, 0.0);
  std::vector<cof::serve::request_result> results(n);
  std::vector<char> ok(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  usize published = 0;

  std::thread collector([&] {
    for (usize i = 0; i < n; ++i) {
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return published > i; });
      }
      if (!reqs[i].admitted) continue;
      try {
        results[i] = reqs[i].fut.get();
        ok[i] = 1;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: request %zu failed: %s\n", i, e.what());
      }
      done[i] = now_s();
    }
  });

  phase p;
  util::rng rng(seed);
  double due = now_s() + 0.01;
  const double first_due = due;
  for (usize i = 0; i < n; ++i) {
    due += -std::log(1.0 - rng.next_double()) / rate;
    const u32 g = static_cast<u32>(rng.next_below(in.cfg.queries.size()));
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(due))));
    const double t0 = now_s();
    p.late_ms.push_back(1e3 * (t0 - due));
    pending req;
    req.guide = g;
    req.due = due;
    try {
      const auto& q = in.cfg.queries[g];
      auto submit = [&] { return srv.submit(q.seq, q.max_mismatches); };
      req.fut = tr != nullptr ? tr->span("admit", submit) : submit();
      req.admitted = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: request %zu rejected: %s\n", i, e.what());
    }
    p.admit_us.push_back(1e6 * (now_s() - t0));
    {
      std::lock_guard lk(mu);
      reqs[i] = std::move(req);
      ++published;
    }
    cv.notify_one();
  }
  p.queue_depth_end = static_cast<double>(srv.stats().queue_depth);
  collector.join();

  double last_done = first_due;
  for (usize i = 0; i < n; ++i) {
    ++r.attempted;
    r.check(ok[i] && results[i].records == slices[reqs[i].guide],
            "serve_open request " + std::to_string(i));
    if (!ok[i]) continue;
    p.latency_ms.push_back(1e3 * (done[i] - reqs[i].due));
    p.timing.push_back(results[i].timing);
    last_done = std::max(last_done, done[i]);
  }
  p.served_rps = static_cast<double>(p.latency_ms.size()) / (last_done - first_due);
  if (percentile(p.late_ms, 0.99) > kMaxLateP99Ms) {
    r.invalid = true;
    r.invalid_reason = "generator fell behind its schedule (late p99 " +
                       std::to_string(percentile(p.late_ms, 0.99)) + " ms)";
  }
  if (p.queue_depth_end > static_cast<double>(cof::serve::server_options{}.max_batch)) {
    r.invalid = true;
    r.invalid_reason = "admission backlog grew to " +
                       std::to_string(p.queue_depth_end) + " requests";
  }
  return p;
}

/// Replay single-guide sweeps the way the evicting session serves them:
/// every chunk re-uploaded with its prebuilt loci, compared, fetched and
/// formatted on the default facade.
void replay_sweeps(const cof::genome_index& idx, const inputs& in,
                   const std::vector<std::vector<cof::ot_record>>& slices, tracer& tr,
                   result& r) {
  const std::string fx = default_facade().name;
  const u32 plen = static_cast<u32>(in.cfg.pattern.size());
  cof::pipeline_metrics m;
  for (usize k = 0; k < kReplaySweeps; ++k) {
    const u32 g = static_cast<u32>(k % in.cfg.queries.size());
    const auto& q = in.cfg.queries[g];
    const std::vector<cof::device_pattern> queries = {cof::make_query(q.seq)};
    const std::vector<u16> thresholds = {q.max_mismatches};
    std::vector<cof::ot_record> records;
    tr.span("sweep", [&] {
      for (const auto& ch : idx.chunks) {
        if (ch.loci.empty()) continue;
        auto pipe = make_facade_pipeline(default_facade().kind);
        tr.span("h2d." + fx,
                [&] { pipe->load_indexed_chunk(ch.text, plen, ch.loci, ch.flags); });
        tr.span("comparer." + fx,
                [&] { pipe->launch_comparer_batch(queries, thresholds).wait(); });
        const auto e = tr.span("fetch." + fx, [&] { return pipe->fetch_entries(); });
        tr.span("format", [&] {
          for (usize i = 0; i < e.size(); ++i) {
            const std::string_view slice(ch.text.data() + e.loci[i], plen);
            records.push_back(cof::ot_record{
                0, ch.chrom_index, ch.start + e.loci[i], e.dir[i], e.mm[i],
                cof::make_site_string(queries[0].seq, slice, e.dir[i])});
          }
        });
        const auto& pm = pipe->metrics();
        m.h2d_bytes += pm.h2d_bytes;
        m.d2h_bytes += pm.d2h_bytes;
        m.kernel_nanos += pm.kernel_nanos;
        m.comparer_launches += pm.comparer_launches;
        m.total_entries += pm.total_entries;
        m.total_loci += ch.loci.size();
      }
      tr.span("merge", [&] { cof::sort_and_dedup(records); });
    });
    ++r.attempted;
    r.check(records == slices[g], "serve_open replay sweep");
    r.add("format.records", static_cast<double>(records.size()));
  }
  r.set("h2d.bytes." + fx, static_cast<double>(m.h2d_bytes));
  r.set("d2h.bytes." + fx, static_cast<double>(m.d2h_bytes));
  r.set("kernel.busy_s." + fx, 1e-9 * static_cast<double>(m.kernel_nanos));
  r.set("comparer.entries", static_cast<double>(m.total_entries));
  r.set("comparer.launches", static_cast<double>(m.comparer_launches));
  r.set("comparer.yield",
        static_cast<double>(m.total_entries) / static_cast<double>(m.total_loci));
  add_layer_busy(r, tr);
}

std::vector<double> timing_ms(const phase& p, util::u64 cof::serve::request_timing::*field) {
  std::vector<double> v;
  for (const auto& t : p.timing) v.push_back(1e-3 * static_cast<double>(t.*field));
  return v;
}

}  // namespace

result run_serve_open(const run_args& a) {
  result r;
  add_fingerprint(r, a);
  const inputs in = make_inputs(a.seed, kPatternCGG, kGuides, 0);
  std::vector<std::vector<cof::ot_record>> slices;
  for (u32 q = 0; q < in.cfg.queries.size(); ++q) slices.push_back(oracle_slice(in, q));
  r.info["guides"] = std::to_string(in.cfg.queries.size());
  r.info["oracle_records"] = std::to_string(in.oracle.size());
  r.info["generate_s"] = std::to_string(in.generate_s);
  r.info["oracle_s"] = std::to_string(in.oracle_s);
  r.info["rate_rps"] = std::to_string(a.serve_rate);
  const std::string path = a.work_dir + "/serve.cofidx";

  std::vector<double> setups;
  serve_setup s;
  for (usize rep = 0; rep < (a.trace ? 1 : kSetupReps); ++rep) {
    s.srv.reset();  // the server must not outlive the index it serves
    s = set_up(in, slices, path, r);
    setups.push_back(s.total());
  }
  r.info["resident_bytes"] = std::to_string(s.footprint / 2);
  const u64 schedule_seed = a.seed ^ 0x5e7eULL;

  const usize n = std::max<usize>(1, static_cast<usize>(std::lround(a.serve_rate * a.seconds)));
  reset_peak_rss();
  const phase plain = open_loop(*s.srv, in, slices, a.serve_rate, n, schedule_seed, nullptr, r);
  const double rss_mb = peak_rss_mb();
  r.info["requests"] = std::to_string(n);
  r.info["served_rps"] = std::to_string(plain.served_rps);
  if (!a.trace) {
    r.set("setup_s", median(setups));
    r.set("latency_p50_ms", median(plain.latency_ms));
    r.set("peak_rss_mb", rss_mb);
    return r;
  }

  // The envelopes come from the untraced phase; the traced phase adds spans
  // around submit() and gives the other side of trace.overhead_pct.
  tracer tr;
  const phase traced =
      open_loop(*s.srv, in, slices, a.serve_rate, kTraceRequests, schedule_seed + 1, &tr, r);
  const auto st = s.srv->stats();
  const auto& session = s.srv->session();

  r.set("serve.latency_p90_ms", percentile(plain.latency_ms, 0.9));
  r.set("serve.latency_p99_ms", percentile(plain.latency_ms, 0.99));
  r.set("admit.busy_us.p50", percentile(traced.admit_us, 0.5));
  r.set("admit.busy_us.p99", percentile(traced.admit_us, 0.99));
  using rt = cof::serve::request_timing;
  r.set("queue.wait_ms.p50", percentile(timing_ms(plain, &rt::queue_us), 0.5));
  r.set("queue.wait_ms.p99", percentile(timing_ms(plain, &rt::queue_us), 0.99));
  r.set("batch-wait.ms.p50", percentile(timing_ms(plain, &rt::batch_wait_us), 0.5));
  r.set("device.ms.p50", percentile(timing_ms(plain, &rt::device_us), 0.5));
  r.set("device.ms.p99", percentile(timing_ms(plain, &rt::device_us), 0.99));
  r.set("demux.ms.p50", percentile(timing_ms(plain, &rt::demux_us), 0.5));
  r.set("batch.size.mean", st.batches > 0 ? static_cast<double>(st.served) /
                                                static_cast<double>(st.batches)
                                          : 0);
  r.set("batch.count", static_cast<double>(st.batches));
  r.set("batch.retries", static_cast<double>(st.batch_retries));
  r.set("generator.late_ms.p99", percentile(plain.late_ms, 0.99));
  r.set("generator.late_ms.max", percentile(plain.late_ms, 1.0));
  r.set("queue.depth.end", plain.queue_depth_end);
  r.set("served_rps", plain.served_rps);

  r.set("index.build_s", s.build_s);
  r.set("index.save_s", s.save_s);
  r.set("index.load_s", s.load_s);
  r.set("index.bytes", static_cast<double>(std::filesystem::file_size(path)));
  const double hits = static_cast<double>(session.chunk_hits());
  const double misses = static_cast<double>(session.chunk_misses());
  r.set("residency.hits", hits);
  r.set("residency.misses", misses);
  r.set("residency.evictions", static_cast<double>(session.chunk_evictions()));
  r.set("residency.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  r.set("residency.bytes", static_cast<double>(session.resident_bytes()));

  r.set("trace.overhead_pct",
        100.0 * (median(traced.latency_ms) / median(plain.latency_ms) - 1.0));

  replay_sweeps(*s.idx, in, slices, tr, r);
  tr.write_chrome_json(a.trace_dir + "/trace_serve_open.json");
  return r;
}

}  // namespace perfbench
