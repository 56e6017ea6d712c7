// Resident serving mode ("cofd"): a long-lived daemon surface over the
// genome index. Requests (one guide RNA + mismatch budget each) enter a
// bounded admission queue; a single dispatcher thread collects everything
// that arrives within a micro-batching window and coalesces it into ONE
// index_query_session::query() — i.e. one multi-query comparer launch per
// genome chunk — then demultiplexes the records back to per-request
// futures by query index. The ROADMAP's "request admission that coalesces
// concurrent user queries into one multi-query launch", made concrete:
//
//   serve::server srv(idx, opts);                 // index stays resident
//   auto fut = srv.submit("GGCC...GG", 3);        // non-blocking admit
//   serve::request_result r = fut.get();          // records for THIS guide
//   // r.request_id, r.timing.{queue,batch_wait,device,demux}_us
//   srv.shutdown();                               // drains, then stops
//
// Guarantees:
//   * Coalescing never changes results: each future receives exactly the
//     records a standalone query for its guide would have produced
//     (query_index rewritten to 0), byte-identical site strings included.
//   * Admission is validated per request (guide length vs the indexed
//     pattern, IUPAC alphabet) so one malformed request is rejected at
//     submit() and can never fail a coalesced batch for its neighbours.
//   * Backpressure: submit() blocks while the admission queue is full —
//     host memory stays bounded no matter how fast clients push.
//   * Batch dispatch retries transient device faults with the engine's
//     bounded policy (fault site "serve.batch"); admission has its own
//     injection point ("serve.admit"). Exhausted retries fail only the
//     requests in that batch, each future carrying the error.
//   * shutdown() (and the destructor) close admission, drain every queued
//     request, then join the dispatcher — no future is ever abandoned.
//
// Observability:
//   * Every request carries a monotonically increasing id from admission to
//     fulfilment. When capture is on (tracing or the flight recorder) the
//     id threads a Chrome flow chain ("serve.request": 's' at submit, 't'
//     at dispatcher pickup and at batch launch, 'f' at fulfilment) so
//     Perfetto draws one connected arrow per request across the client
//     thread, the dispatcher and the coalesced launch; the batch id links
//     the chain to the per-chunk "index.chunk.compare" device spans.
//   * The future's envelope (request_result) breaks the request's latency
//     into queue wait, batch-assembly wait, device time and demux time.
//   * Metrics (recorded unconditionally): serve.requests / serve.rejected /
//     serve.batches / serve.batch.retry counters, serve.batch_size and
//     serve.latency_us histograms plus a serve.latency_us windowed
//     (sliding 10 s) twin, serve.queue_depth gauge.
//   * stats_json() renders a one-line live snapshot (queue depth, in-flight,
//     batch-size distribution, latency percentiles, residency, recovery and
//     flight-recorder counters) — the `!stats` control line of the daemon
//     protocol; health() derives ok|degraded|draining from the windowed
//     rejection rate and windowed p99 vs the configured SLO.
//   * The flight recorder (obs/flight.hpp) is armed for the server's
//     whole lifetime: a batch that exhausts its retries or fails terminally
//     dumps a postmortem ring + metrics snapshot to cof-postmortem-<pid>.json
//     before the futures are failed.
// The caller owns obs/fault scoping (obs::run_scope + fault::scope) exactly
// as with the engine; run_scope nests, so a server-lifetime scope composes
// with per-query engine scopes.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/index.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace cof::serve {

/// Admission queue capacity; submit() blocks (backpressure) when full.
inline constexpr usize kQueueCapacity = 256;
/// Dispatch attempts for a batch hitting transient device faults before its
/// requests are failed.
inline constexpr usize kMaxBatchAttempts = 4;
/// Health: degraded while the windowed rejection rate exceeds this.
inline constexpr double kDegradedRejectRate = 0.05;
/// Health quorum: below this many windowed samples report ok (noise).
inline constexpr util::u64 kHealthMinSamples = 16;

struct server_options {
  /// Backend/variant/num_queues/max_entries/resident_bytes etc. for the
  /// underlying index_query_session, whose overflow recovery applies
  /// unchanged.
  engine_options engine;
  /// Micro-batching window: after the first request of a batch arrives the
  /// dispatcher keeps admitting for this long before launching. 0 = no
  /// wait — still coalesces whatever is already queued (pure backlog
  /// coalescing), so a burst submitted together batches even at 0.
  usize batch_window_us = 200;
  /// Hard cap on requests coalesced into one launch.
  usize max_batch = 64;
  /// Health SLO: health() reports degraded while the windowed latency p99
  /// exceeds this many microseconds. 0 = no latency SLO.
  util::u64 slo_us = 0;
  /// Directory postmortem dumps are written into (empty = leave the
  /// process-wide default, ".").
  std::string postmortem_dir;
};

/// Monotonic counters since construction (snapshot, not live handles),
/// plus two instantaneous depths sampled at the call.
struct server_stats {
  util::u64 admitted = 0;       // requests accepted into the queue
  util::u64 rejected = 0;       // submit() refusals (validation/shutdown)
  util::u64 served = 0;         // futures fulfilled with records
  util::u64 failed = 0;         // futures fulfilled with an exception
  util::u64 batches = 0;        // coalesced launches
  util::u64 batch_retries = 0;  // transient-fault batch re-dispatches
  util::u64 max_batch_size = 0; // largest coalesced batch so far
  util::u64 overflow_retries = 0;     // session entry-overflow recoveries
  util::u64 recovered_overflows = 0;  // ...that ended in a clean chunk
  util::u64 in_flight = 0;      // admitted, future not yet fulfilled
  util::u64 queue_depth = 0;    // buffered in the admission queue right now
};

/// Per-request latency breakdown, measured on the serving path's own
/// timestamps (obs::now_ns timebase, so it lines up with the trace):
///   admission → dispatcher pop → coalesced launch → outcome → fulfilment.
struct request_timing {
  util::u64 queue_us = 0;       // admission queue wait
  util::u64 batch_wait_us = 0;  // micro-batch assembly (pop → launch)
  util::u64 device_us = 0;      // coalesced query (shared by the batch)
  util::u64 demux_us = 0;       // outcome → this future fulfilled
  util::u64 total_us() const {
    return queue_us + batch_wait_us + device_us + demux_us;
  }
};

/// What a submitted request's future yields: the records for that guide
/// (query_index == 0) plus the request id and its timing breakdown.
struct request_result {
  std::vector<ot_record> records;
  util::u64 request_id = 0;
  request_timing timing;
};

/// Daemon health, derived — not stored: draining once shutdown began,
/// degraded while the windowed rejection rate or windowed latency p99
/// breaches the configured thresholds, ok otherwise.
enum class health_state { ok, degraded, draining };
const char* health_name(health_state h);

class server {
 public:
  /// The index must outlive the server. Spawns the dispatcher thread.
  server(const genome_index& idx, const server_options& opt);
  ~server();  // shutdown()
  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Admit one request. Throws index_error (site "serve.admit") when the
  /// guide length does not match the indexed pattern, the guide has a
  /// non-IUPAC character or the server is shut down; blocks while the
  /// admission queue is full. The future yields this
  /// guide's records (query_index == 0) wrapped in the request envelope, or
  /// rethrows the batch failure.
  std::future<request_result> submit(const std::string& guide,
                                     u16 max_mismatches);

  /// Close admission, drain every queued request, join the dispatcher.
  /// Idempotent; later submit() calls throw.
  void shutdown();

  server_stats stats() const;

  /// One-line JSON live snapshot — the `!stats` control-line payload:
  /// {"health", "uptime_s", counters, "queue_depth", "in_flight",
  ///  "batch_size" percentiles, "latency_us" lifetime + windowed
  ///  percentiles, "resident" bytes + chunk hit/miss/evict, "devices"
  ///  per-shard-device residency (name/alive/slots/bytes/chunks) +
  ///  "migrations", "recovery", "flight" armed/buffered/dumps}.
  std::string stats_json() const;

  /// Also degraded while any shard device of the session is marked failed
  /// (engine.num_devices > 1): capacity loss is operator-visible even when
  /// the survivors hold the latency SLO.
  health_state health() const;

  const index_query_session& session() const { return *session_; }
  const genome_index& index() const { return session_->index(); }

 private:
  struct pending;
  void dispatch_loop();
  void run_batch(std::vector<pending>& batch);
  void note_admission(bool rejected);

  server_options opt_;
  // Armed before the session exists, disarmed after it is gone: every
  // serving-path probe lands in the postmortem ring for the full lifetime.
  obs::flight::scope flight_;
  std::unique_ptr<index_query_session> session_;
  std::unique_ptr<util::bounded_queue<pending>> queue_;
  std::thread loop_;
  std::mutex join_mu_;  // shutdown() is callable from any thread, once each
  std::atomic<bool> stopping_{false};
  util::u64 t_start_ns_ = 0;

  std::atomic<util::u64> next_id_{0};
  std::atomic<util::u64> admitted_{0};
  std::atomic<util::u64> rejected_{0};
  std::atomic<util::u64> served_{0};
  std::atomic<util::u64> failed_{0};
  std::atomic<util::u64> batches_{0};
  std::atomic<util::u64> batch_retries_{0};
  std::atomic<util::u64> max_batch_size_{0};
  std::atomic<util::u64> overflow_retries_{0};
  std::atomic<util::u64> recovered_overflows_{0};
  std::atomic<util::u64> in_flight_{0};

  // Windowed admission outcomes for the health rejection rate: every
  // submit observes 1 (rejected) or 0 (admitted); rate = sum/count over
  // the sliding window. Owned here, not in the registry — a nested
  // run_scope reset must not blind health().
  obs::sliding_histogram admit_window_;
};

}  // namespace cof::serve
