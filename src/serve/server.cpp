#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace cof::serve {

namespace {

using clock = std::chrono::steady_clock;

/// Coalesced-batch size buckets (requests per launch).
const std::vector<u64>& batch_size_bounds() {
  static const std::vector<u64> bounds = {2, 4, 8, 16, 32, 64, 128};
  return bounds;
}

/// Admission-outcome "buckets" for the windowed rejection rate: samples are
/// 0 (admitted) or 1 (rejected), so sum/count over the window is the rate.
std::vector<u64> admit_bounds() { return {1}; }

u64 to_us(u64 from_ns, u64 to_ns) {
  return to_ns > from_ns ? (to_ns - from_ns) / 1000 : 0;
}

/// Name the site a terminal batch failure came from, for the postmortem
/// header ("serve.batch" for exhausted retries / injected faults, the
/// index_error's own site otherwise).
std::string error_site(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const fault::injected_error& e) {
    return e.site();
  } catch (const index_error& e) {
    return e.site();
  } catch (...) {
    return "";
  }
}

}  // namespace

const char* health_name(health_state h) {
  switch (h) {
    case health_state::ok: return "ok";
    case health_state::degraded: return "degraded";
    case health_state::draining: return "draining";
  }
  return "unknown";
}

/// One admitted request riding the queue: the query it will contribute to
/// the coalesced batch, the promise its envelope demuxes into, the request
/// id that threads its flow chain, and the admission/pickup timestamps the
/// timing breakdown measures from (obs::now_ns timebase).
struct server::pending {
  query_spec q;
  std::promise<request_result> prom;
  u64 id = 0;
  u64 t_admit_ns = 0;
  u64 t_pop_ns = 0;
};

server::server(const genome_index& idx, const server_options& opt)
    : opt_(opt), admit_window_(admit_bounds()) {
  if (!opt_.postmortem_dir.empty()) {
    obs::flight::set_dump_dir(opt_.postmortem_dir);
  }
  t_start_ns_ = obs::now_ns();
  session_ = std::make_unique<index_query_session>(idx, opt_.engine);
  queue_ = std::make_unique<util::bounded_queue<pending>>(kQueueCapacity);
  // Materialise the latency instruments up front so stats_json()/health()
  // never race a first-use insertion.
  auto& reg = obs::metrics_registry::global();
  reg.histogram("serve.latency_us", obs::default_latency_bounds_us());
  reg.windowed("serve.latency_us", obs::default_latency_bounds_us());
  loop_ = std::thread([this] {
    obs::set_thread_name("serve.dispatch");
    dispatch_loop();
  });
}

server::~server() { shutdown(); }

void server::note_admission(bool rejected) {
  admit_window_.observe(rejected ? 1 : 0);
  if (rejected) {
    rejected_.fetch_add(1);
    obs::metrics_registry::global().counter("serve.rejected").add(1);
  }
}

std::future<request_result> server::submit(const std::string& guide,
                                           u16 max_mismatches) {
  // Admission-time injection point: an armed serve.admit plan rejects THIS
  // request cleanly (injected_error propagates to the caller) and leaves
  // every other in-flight request untouched.
  try {
    fault::inject_point(fault::site::serve_admit);
  } catch (...) {
    note_admission(true);
    throw;
  }
  const usize plen = session_->index().pattern.size();
  if (guide.size() != plen) {
    note_admission(true);
    throw index_error(fault::site::serve_admit,
                      "guide length " + std::to_string(guide.size()) +
                          " != indexed pattern length " + std::to_string(plen));
  }
  // The alphabet rule make_query applies, checked here so a bad guide is a
  // rejection instead of an abort on the dispatcher.
  const auto bad = std::find_if(guide.begin(), guide.end(),
                                [](char c) { return normalize_base(c) == '\0'; });
  if (bad != guide.end()) {
    note_admission(true);
    throw index_error(fault::site::serve_admit,
                      std::string("non-IUPAC character in guide: ") + *bad);
  }
  if (stopping_.load()) {
    note_admission(true);
    throw index_error(fault::site::serve_admit, "server is shut down");
  }
  pending p;
  p.q.seq = guide;
  p.q.max_mismatches = max_mismatches;
  p.id = next_id_.fetch_add(1) + 1;  // ids start at 1; 0 = "no request"
  p.t_admit_ns = obs::now_ns();
  const u64 id = p.id;
  auto fut = p.prom.get_future();
  {
    // The request's flow chain starts where it entered: an 's' inside a
    // submit span on the client thread, continued by the dispatcher ('t')
    // and ended at fulfilment ('f').
    obs::span sp("serve.submit", "serve");
    sp.arg("request", static_cast<double>(id));
    obs::flow_begin("serve.request", "serve", id);
    // Blocks while the queue is full — admission backpressure, same
    // contract as the streaming engine's chunk hand-off.
    if (!queue_->push(std::move(p))) {
      note_admission(true);
      throw index_error(fault::site::serve_admit, "server is shut down");
    }
  }
  note_admission(false);
  admitted_.fetch_add(1);
  auto& reg = obs::metrics_registry::global();
  reg.counter("serve.requests").add(1);
  reg.gauge("serve.queue_depth")
      .set(static_cast<util::i64>(in_flight_.fetch_add(1) + 1));
  return fut;
}

void server::dispatch_loop() {
  const auto window = std::chrono::microseconds(opt_.batch_window_us);
  const usize max_batch = std::max<usize>(1, opt_.max_batch);
  pending first;
  // pop() blocks for the batch opener and only returns false once the
  // queue is closed AND drained — which is exactly the graceful-shutdown
  // contract: every admitted request is served before the loop exits.
  while (queue_->pop(first)) {
    first.t_pop_ns = obs::now_ns();
    obs::flow_step("serve.request", "serve", first.id);
    std::vector<pending> batch;
    batch.push_back(std::move(first));
    const auto deadline = clock::now() + window;
    while (batch.size() < max_batch) {
      const auto remaining = deadline - clock::now();
      pending next;
      // A non-positive remainder still polls with a zero wait: requests
      // already queued coalesce even when the window is 0 or expired.
      const auto st = queue_->pop_for(
          next, remaining > clock::duration::zero()
                    ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                          remaining)
                    : std::chrono::nanoseconds(0));
      if (st == util::wait_status::ready) {
        next.t_pop_ns = obs::now_ns();
        obs::flow_step("serve.request", "serve", next.id);
        batch.push_back(std::move(next));
        continue;
      }
      if (st == util::wait_status::closed) break;  // drain ends after this batch
      if (remaining <= clock::duration::zero()) break;  // window spent
    }
    run_batch(batch);
  }
}

void server::run_batch(std::vector<pending>& batch) {
  const u64 batch_id = batches_.fetch_add(1) + 1;
  obs::span sp("serve.batch", "serve");
  sp.arg("requests", static_cast<double>(batch.size()));
  sp.arg("batch", static_cast<double>(batch_id));
  auto& reg = obs::metrics_registry::global();
  reg.counter("serve.batches").add(1);
  reg.histogram("serve.batch_size", batch_size_bounds()).observe(batch.size());
  u64 prev_max = max_batch_size_.load();
  while (batch.size() > prev_max &&
         !max_batch_size_.compare_exchange_weak(prev_max, batch.size())) {
  }

  std::vector<query_spec> qs;
  qs.reserve(batch.size());
  for (const auto& p : batch) qs.push_back(p.q);

  // Launch milestone of every flow chain in the batch: the arrows converge
  // on the coalesced launch, whose per-chunk device spans carry batch_id.
  const u64 t_launch_ns = obs::now_ns();
  for (const auto& p : batch) obs::flow_step("serve.request", "serve", p.id);

  search_outcome out;
  std::exception_ptr error;
  bool exhausted_retries = false;
  for (usize attempt = 0;; ++attempt) {
    try {
      fault::inject_point(fault::site::serve_batch);
      out = session_->query(qs, query_trace{batch_id});
      break;
    } catch (const fault::injected_error&) {
      // Transient dispatch fault: bounded re-dispatch, the streaming
      // engine's device-retry policy applied at batch granularity. The
      // session's own recovery already handled per-chunk faults below us —
      // this covers the batch envelope itself.
      if (attempt + 1 >= kMaxBatchAttempts) {
        error = std::current_exception();
        exhausted_retries = true;
        break;
      }
      batch_retries_.fetch_add(1);
      reg.counter("serve.batch.retry").add(1);
    } catch (...) {
      // Non-transient failure (overflow with recovery off, index error):
      // fail exactly the requests in this batch, keep serving later ones.
      error = std::current_exception();
      break;
    }
  }

  const u64 t_done_ns = obs::now_ns();
  overflow_retries_.fetch_add(out.metrics.recovery.overflow_retries);
  recovered_overflows_.fetch_add(out.metrics.recovery.recovered_overflows);
  auto& latency =
      reg.histogram("serve.latency_us", obs::default_latency_bounds_us());
  auto& latency_window =
      reg.windowed("serve.latency_us", obs::default_latency_bounds_us());
  if (error) {
    // Terminal batch failure: postmortem first (the flight ring still holds
    // the retry spans and the failing launch), then fail the futures.
    if (obs::flight::armed()) {
      const std::string site = error_site(error);
      const std::string reason =
          exhausted_retries
              ? util::format("serve batch %llu exhausted %zu dispatch attempts",
                             static_cast<unsigned long long>(batch_id),
                             kMaxBatchAttempts)
              : util::format("serve batch %llu failed terminally",
                             static_cast<unsigned long long>(batch_id));
      obs::flight::dump(reason, site);
    }
    for (auto& p : batch) {
      obs::flow_end("serve.request", "serve", p.id);
      p.prom.set_exception(error);
      failed_.fetch_add(1);
    }
  } else {
    // Demux by query index: record i of the coalesced outcome belongs to
    // batch[records[i].query_index]. Each requester sees its records as a
    // standalone single-guide query would have produced them.
    obs::span dsp("serve.demux", "serve");
    dsp.arg("batch", static_cast<double>(batch_id));
    std::vector<std::vector<ot_record>> per(batch.size());
    for (auto& rec : out.records) {
      const usize owner = rec.query_index;
      rec.query_index = 0;
      per[owner].push_back(std::move(rec));
    }
    for (usize i = 0; i < batch.size(); ++i) {
      pending& p = batch[i];
      const u64 t_fulfil_ns = obs::now_ns();
      request_result r;
      r.records = std::move(per[i]);
      r.request_id = p.id;
      r.timing.queue_us = to_us(p.t_admit_ns, p.t_pop_ns);
      r.timing.batch_wait_us = to_us(p.t_pop_ns, t_launch_ns);
      r.timing.device_us = to_us(t_launch_ns, t_done_ns);
      r.timing.demux_us = to_us(t_done_ns, t_fulfil_ns);
      const u64 total_us = to_us(p.t_admit_ns, t_fulfil_ns);
      latency.observe(total_us);
      latency_window.observe(total_us);
      obs::flow_end("serve.request", "serve", p.id);
      p.prom.set_value(std::move(r));
      served_.fetch_add(1);
    }
  }
  reg.gauge("serve.queue_depth")
      .set(static_cast<util::i64>(in_flight_.fetch_sub(batch.size()) -
                            batch.size()));
}

void server::shutdown() {
  stopping_.store(true);
  queue_->close();  // idempotent; wakes the dispatcher
  std::lock_guard lock(join_mu_);
  if (loop_.joinable()) loop_.join();
}

server_stats server::stats() const {
  server_stats s;
  s.admitted = admitted_.load();
  s.rejected = rejected_.load();
  s.served = served_.load();
  s.failed = failed_.load();
  s.batches = batches_.load();
  s.batch_retries = batch_retries_.load();
  s.max_batch_size = max_batch_size_.load();
  s.overflow_retries = overflow_retries_.load();
  s.recovered_overflows = recovered_overflows_.load();
  s.in_flight = in_flight_.load();
  s.queue_depth = queue_->size();
  return s;
}

health_state server::health() const {
  if (stopping_.load()) return health_state::draining;
  // A dead shard device is a capacity loss the operator must see even while
  // the survivors keep latency inside the SLO.
  if (session_->failed_devices() > 0) return health_state::degraded;
  const u64 admits = admit_window_.count();
  if (admits >= kHealthMinSamples) {
    const double rate = static_cast<double>(admit_window_.sum()) /
                        static_cast<double>(admits);
    if (rate > kDegradedRejectRate) return health_state::degraded;
  }
  if (opt_.slo_us != 0) {
    auto& w = obs::metrics_registry::global().windowed(
        "serve.latency_us", obs::default_latency_bounds_us());
    if (w.count() >= kHealthMinSamples &&
        w.quantile(0.99) > static_cast<double>(opt_.slo_us)) {
      return health_state::degraded;
    }
  }
  return health_state::ok;
}

std::string server::stats_json() const {
  const server_stats s = stats();
  auto& reg = obs::metrics_registry::global();
  auto& lat = reg.histogram("serve.latency_us", obs::default_latency_bounds_us());
  auto& lat_w = reg.windowed("serve.latency_us", obs::default_latency_bounds_us());
  auto& bs = reg.histogram("serve.batch_size", batch_size_bounds());

  auto u = [](u64 v) { return static_cast<unsigned long long>(v); };
  std::string out = "{";
  out += util::format("\"health\":\"%s\"", health_name(health()));
  out += util::format(",\"uptime_s\":%.3f",
                      static_cast<double>(obs::now_ns() - t_start_ns_) / 1e9);
  out += util::format(
      ",\"admitted\":%llu,\"rejected\":%llu,\"served\":%llu,\"failed\":%llu",
      u(s.admitted), u(s.rejected), u(s.served), u(s.failed));
  out += util::format(",\"queue_depth\":%llu,\"in_flight\":%llu",
                      u(s.queue_depth), u(s.in_flight));
  out += util::format(
      ",\"batches\":%llu,\"batch_retries\":%llu,"
      "\"batch_size\":{\"p50\":%.1f,\"p99\":%.1f,\"max\":%llu}",
      u(s.batches), u(s.batch_retries), bs.quantile(0.5), bs.quantile(0.99),
      u(s.max_batch_size));
  out += util::format(
      ",\"latency_us\":{\"count\":%llu,\"p50\":%.1f,\"p90\":%.1f,"
      "\"p95\":%.1f,\"p99\":%.1f,\"window\":{\"window_s\":%.1f,"
      "\"count\":%llu,\"p50\":%.1f,\"p99\":%.1f}}",
      u(lat.count()), lat.quantile(0.5), lat.quantile(0.9), lat.quantile(0.95),
      lat.quantile(0.99),
      static_cast<double>(lat_w.epochs()) *
          static_cast<double>(lat_w.epoch_nanos()) / 1e9,
      u(lat_w.count()), lat_w.quantile(0.5), lat_w.quantile(0.99));
  out += util::format(
      ",\"resident\":{\"bytes\":%llu,\"chunk_hits\":%llu,"
      "\"chunk_misses\":%llu,\"chunk_evictions\":%llu}",
      u(session_->resident_bytes()), u(session_->chunk_hits()),
      u(session_->chunk_misses()), u(session_->chunk_evictions()));
  const auto devs = session_->device_residency();
  out += ",\"devices\":[";
  for (usize d = 0; d < devs.size(); ++d) {
    if (d != 0) out += ",";
    out += util::format(
        "{\"name\":\"%s\",\"alive\":%s,\"slots\":%llu,"
        "\"resident_bytes\":%llu,\"chunks\":%llu}",
        devs[d].name.c_str(), devs[d].alive ? "true" : "false", u(devs[d].slots),
        u(devs[d].resident_bytes), u(devs[d].chunks));
  }
  out += util::format("],\"migrations\":%llu",
                      u(session_->device_migrations()));
  out += util::format(
      ",\"recovery\":{\"overflow_retries\":%llu,\"recovered_overflows\":%llu}",
      u(s.overflow_retries), u(s.recovered_overflows));
  out += util::format(",\"flight\":{\"armed\":%s,\"buffered\":%zu,\"dumps\":%llu}",
                      obs::flight::armed() ? "true" : "false",
                      obs::flight::buffered(), u(obs::flight::dump_count()));
  out += "}";
  return out;
}

}  // namespace cof::serve
