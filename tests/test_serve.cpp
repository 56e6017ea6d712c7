// Resident serving suite: soak coverage for the warm-path residency fixes
// (sequential and concurrent query() calls over randomized guide sets,
// byte-identity vs the serial reference, residency-hit and per-call
// metrics-delta assertions, LRU eviction under a tiny byte budget) plus the
// serve::server admission layer (burst coalescing into fewer launches,
// graceful shutdown draining the queue, per-request validation that cannot
// fail a neighbour's batch). The concurrency tests carry the tsan label —
// the daemon admission loop depends on concurrent query() being defined.
#include <gtest/gtest.h>

#include "gtest_compat.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/index.hpp"
#include "fault/fault.hpp"
#include "genome/synth.hpp"
#include "json_compat.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/common.hpp"

namespace {

using util::u64;
using util::usize;

constexpr const char* kPattern = "NNNNNNNNNNNNNNNNNNNNNGG";

genome::genome_t serve_genome(u64 seed) {
  genome::synth_params p;
  p.assembly = "serve-test";
  p.chromosomes = {{"chrA", 30000}, {"chrB", 12000}};
  p.seed = seed;
  return genome::generate(p);
}

/// Candidate guides lifted from real genome positions (so queries hit), N-free.
std::vector<std::string> guide_pool(const genome::genome_t& g, usize n) {
  std::vector<std::string> pool;
  const std::string& seq = g.chroms[0].seq;
  usize pos = 256;
  while (pool.size() < n && pos + 20 < seq.size()) {
    const std::string core = seq.substr(pos, 20);
    pos += 577;
    if (core.find('N') != std::string::npos) continue;
    pool.push_back(core + "NNN");
  }
  return pool;
}

std::vector<cof::query_spec> pick_guides(const std::vector<std::string>& pool,
                                         std::mt19937& rng, usize n) {
  std::vector<cof::query_spec> qs;
  std::uniform_int_distribution<usize> d(0, pool.size() - 1);
  for (usize i = 0; i < n; ++i) {
    qs.push_back({pool[d(rng)], static_cast<util::u16>(1 + (i % 2))});
  }
  return qs;
}

/// Serial-reference records for one guide set against the same genome.
std::vector<cof::ot_record> serial_records(const genome::genome_t& g,
                                           const std::vector<cof::query_spec>& qs) {
  cof::search_config cfg;
  cfg.pattern = kPattern;
  cfg.queries = qs;
  cof::engine_options opt;
  opt.backend = cof::backend_kind::serial;
  return cof::run_search(cfg, g, opt).records;
}

struct serve_fixture {
  genome::genome_t g;
  cof::genome_index idx;
  std::vector<std::string> pool;

  explicit serve_fixture(u64 seed, usize planted = 8) : g(serve_genome(seed)) {
    cof::search_config cfg;
    cfg.pattern = kPattern;
    pool = guide_pool(g, 6);
    // Plant near-miss sites for the pool guides so record sets are
    // non-trivial everywhere.
    for (usize i = 0; i < pool.size(); ++i) {
      genome::plant_sites(g, pool[i].substr(0, 20) + "NGG", cfg.pattern,
                          planted, 2, seed + 11 * (i + 1));
    }
    cof::engine_options bopt;
    bopt.backend = cof::backend_kind::sycl;
    bopt.max_chunk = 8192;  // several chunks per slot: residency matters
    bopt.num_queues = 2;
    idx = cof::build_index(g, cfg.pattern, bopt);
  }

  cof::engine_options warm_options() const {
    cof::engine_options opt;
    opt.backend = cof::backend_kind::sycl;
    opt.max_chunk = 8192;
    opt.num_queues = 2;
    return opt;
  }
};

// --- warm-path soak ----------------------------------------------------------

/// Many sequential query() calls with randomized guide sets: every call
/// byte-identical to the serial reference, the resident set re-uploads
/// nothing after the first sweep (chunk_hits climbs, misses stay flat), and
/// per-call metrics stay deltas (repeat calls move no chunk bytes h2d).
TEST(ServeSoak, SequentialRandomizedGuidesMatchSerialReference) {
  serve_fixture fx(501);
  cof::index_query_session session(fx.idx, fx.warm_options());
  std::mt19937 rng(77);
  u64 first_h2d = 0;
  bool any_records = false;
  for (usize call = 0; call < 10; ++call) {
    const auto qs = pick_guides(fx.pool, rng, 1 + call % 4);
    const auto out = session.query(qs);
    EXPECT_EQ(out.records, serial_records(fx.g, qs)) << "call " << call;
    any_records = any_records || !out.records.empty();
    if (call == 0) {
      first_h2d = out.metrics.pipeline.h2d_bytes;
      ASSERT_GT(first_h2d, 0u);
    } else {
      // Residency is real: later calls upload only the query patterns,
      // never the chunk text/loci again.
      EXPECT_LT(out.metrics.pipeline.h2d_bytes, first_h2d) << "call " << call;
    }
  }
  EXPECT_TRUE(any_records);
  const u64 misses = session.chunk_misses();
  EXPECT_GT(misses, 0u);
  EXPECT_LE(misses, fx.idx.chunks.size());
  // 10 calls over a fully-resident working set: reuse dominates uploads.
  EXPECT_GT(session.chunk_hits(), session.chunk_misses());
  EXPECT_EQ(session.chunk_evictions(), 0u);
}

/// Two+ threads hammering ONE session concurrently (the daemon admission
/// loop's shape). Per-slot locking must keep every result byte-identical
/// and the hit/miss accounting consistent. Runs under the tsan label.
TEST(ServeSoak, ConcurrentQueriesOnOneSessionAreIdentical) {
  serve_fixture fx(502);
  cof::index_query_session session(fx.idx, fx.warm_options());
  constexpr usize kThreads = 3;
  constexpr usize kCallsPerThread = 4;

  // Fixed guide sets with precomputed references — the threads only race on
  // the session, not on the checking.
  std::vector<std::vector<cof::query_spec>> sets;
  std::vector<std::vector<cof::ot_record>> refs;
  std::mt19937 rng(78);
  for (usize i = 0; i < kThreads * kCallsPerThread; ++i) {
    sets.push_back(pick_guides(fx.pool, rng, 1 + i % 3));
    refs.push_back(serial_records(fx.g, sets.back()));
  }

  std::vector<std::thread> threads;
  std::vector<char> ok(kThreads, 1);
  for (usize t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (usize c = 0; c < kCallsPerThread; ++c) {
        const usize i = t * kCallsPerThread + c;
        if (session.query(sets[i]).records != refs[i]) ok[t] = 0;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (usize t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " diverged from serial reference";
  }
  // Every upload/reuse is accounted: totals reconcile with call count.
  EXPECT_GT(session.chunk_hits(), 0u);
  EXPECT_GT(session.chunk_misses(), 0u);
}

/// A byte budget far below the working set forces LRU eviction on every
/// sweep — results must stay identical, only the upload accounting changes;
/// a generous budget on the same workload evicts nothing.
TEST(ServeSoak, LruEvictionUnderTinyBudgetStaysCorrect) {
  serve_fixture fx(503);
  std::mt19937 rng(79);
  const auto qs = pick_guides(fx.pool, rng, 3);
  const auto ref = serial_records(fx.g, qs);

  auto tiny = fx.warm_options();
  tiny.resident_bytes = 1;  // one chunk resident per slot, max
  cof::index_query_session squeezed(fx.idx, tiny);
  for (usize call = 0; call < 3; ++call) {
    EXPECT_EQ(squeezed.query(qs).records, ref) << "squeezed call " << call;
  }
  EXPECT_GT(squeezed.chunk_evictions(), 0u);
  EXPECT_EQ(squeezed.chunk_hits(), 0u);  // every visit re-uploads
  EXPECT_GT(squeezed.chunk_misses(), fx.idx.chunks.size());

  cof::index_query_session roomy(fx.idx, fx.warm_options());
  for (usize call = 0; call < 3; ++call) {
    EXPECT_EQ(roomy.query(qs).records, ref) << "roomy call " << call;
  }
  EXPECT_EQ(roomy.chunk_evictions(), 0u);
  EXPECT_GT(roomy.chunk_hits(), 0u);
}

// --- admission layer ---------------------------------------------------------

/// A burst submitted into a wide-open batching window coalesces into fewer
/// launches than requests — and every future still gets exactly the records
/// a standalone query for its guide would return (query_index == 0).
TEST(ServeServer, BurstCoalescesIntoFewerBatchesWithIdenticalRecords) {
  serve_fixture fx(504);
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  sopt.batch_window_us = 200000;  // effectively "wait for the whole burst"
  sopt.max_batch = 64;
  cof::serve::server srv(fx.idx, sopt);

  constexpr usize kRequests = 8;
  std::vector<std::future<cof::serve::request_result>> futs;
  std::vector<std::string> guides;
  for (usize i = 0; i < kRequests; ++i) {
    const std::string& guide = fx.pool[i % fx.pool.size()];
    guides.push_back(guide);
    futs.push_back(srv.submit(guide, 2));
  }
  for (usize i = 0; i < kRequests; ++i) {
    const auto res = futs[i].get();
    const auto ref = serial_records(fx.g, {{guides[i], 2}});
    EXPECT_EQ(res.records, ref) << "request " << i;
    EXPECT_GT(res.request_id, 0u);
    for (const auto& r : res.records) EXPECT_EQ(r.query_index, 0u);
  }
  srv.shutdown();
  const auto st = srv.stats();
  EXPECT_EQ(st.admitted, kRequests);
  EXPECT_EQ(st.served, kRequests);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_LT(st.batches, kRequests) << "burst did not coalesce";
  EXPECT_GT(st.max_batch_size, 1u);
}

/// shutdown() closes admission but drains everything already queued — no
/// future is abandoned — and later submits are rejected cleanly.
TEST(ServeServer, ShutdownDrainsQueuedRequestsThenRejects) {
  serve_fixture fx(505);
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  sopt.batch_window_us = 100000;  // requests are queued when shutdown lands
  cof::serve::server srv(fx.idx, sopt);

  std::vector<std::future<cof::serve::request_result>> futs;
  for (usize i = 0; i < 4; ++i) {
    futs.push_back(srv.submit(fx.pool[i % fx.pool.size()], 1));
  }
  srv.shutdown();
  for (usize i = 0; i < futs.size(); ++i) {
    const auto ref = serial_records(fx.g, {{fx.pool[i % fx.pool.size()], 1}});
    EXPECT_EQ(futs[i].get().records, ref) << "queued request " << i << " abandoned";
  }
  EXPECT_EQ(srv.stats().served, 4u);
  EXPECT_THROW((void)srv.submit(fx.pool[0], 1), cof::index_error);
  EXPECT_GE(srv.stats().rejected, 1u);
}

/// Malformed requests are rejected at submit() — a wrong-length guide never
/// reaches a batch, so the well-formed request coalesced "next to it" is
/// served normally.
TEST(ServeServer, WrongLengthGuideRejectedWithoutFailingNeighbours) {
  serve_fixture fx(506);
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  sopt.batch_window_us = 50000;
  cof::serve::server srv(fx.idx, sopt);

  auto good = srv.submit(fx.pool[0], 2);
  EXPECT_THROW((void)srv.submit("ACGT", 2), cof::index_error);
  EXPECT_EQ(good.get().records, serial_records(fx.g, {{fx.pool[0], 2}}));
  srv.shutdown();
  const auto st = srv.stats();
  EXPECT_EQ(st.served, 1u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.failed, 0u);
}

/// A non-IUPAC guide between two valid ones is rejected at submit() with a
/// typed error, instead of aborting the dispatcher that would build its
/// query; both neighbours are answered exactly as run_query answers them.
TEST(ServeServer, NonIupacGuideRejectedWithoutFailingNeighbours) {
  serve_fixture fx(508);
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  sopt.batch_window_us = 50000;
  cof::serve::server srv(fx.idx, sopt);

  std::string bad = fx.pool[1];
  bad[bad.size() - 2] = 'Z';
  auto first = srv.submit(fx.pool[0], 2);
  try {
    (void)srv.submit(bad, 2);
    ADD_FAILURE() << "non-IUPAC guide admitted";
  } catch (const cof::index_error& e) {
    EXPECT_EQ(e.site(), "serve.admit");
  }
  auto last = srv.submit(fx.pool[2], 2);
  EXPECT_EQ(first.get().records,
            cof::run_query(fx.idx, {{fx.pool[0], 2}}, fx.warm_options()).records);
  EXPECT_EQ(last.get().records,
            cof::run_query(fx.idx, {{fx.pool[2], 2}}, fx.warm_options()).records);
  srv.shutdown();
  const auto st = srv.stats();
  EXPECT_EQ(st.served, 2u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.failed, 0u);
}

/// Concurrent submitters (the bench's client shape): records identical per
/// request, total served == total admitted, coalescing visible. tsan label.
TEST(ServeServer, ConcurrentClientsAreServedIdentically) {
  serve_fixture fx(507);
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  sopt.batch_window_us = 2000;
  cof::serve::server srv(fx.idx, sopt);

  constexpr usize kClients = 4;
  constexpr usize kPerClient = 5;
  std::vector<std::vector<cof::ot_record>> refs;
  for (usize c = 0; c < kClients; ++c) {
    refs.push_back(serial_records(fx.g, {{fx.pool[c % fx.pool.size()], 1}}));
  }
  std::vector<std::thread> clients;
  std::vector<char> ok(kClients, 1);
  for (usize c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (usize i = 0; i < kPerClient; ++i) {
        auto res = srv.submit(fx.pool[c % fx.pool.size()], 1).get();
        if (res.records != refs[c]) ok[c] = 0;
      }
    });
  }
  for (auto& t : clients) t.join();
  for (usize c = 0; c < kClients; ++c) EXPECT_TRUE(ok[c]) << "client " << c;
  srv.shutdown();
  const auto st = srv.stats();
  EXPECT_EQ(st.admitted, kClients * kPerClient);
  EXPECT_EQ(st.served, kClients * kPerClient);
  EXPECT_EQ(st.failed, 0u);
}

// --- request-scoped telemetry ------------------------------------------------

/// Every request's envelope carries a live id and a timing breakdown that is
/// internally coherent: the device segment measured real work and the parts
/// do not exceed what the client measured end to end.
TEST(ServeTelemetry, TimingEnvelopeIsCoherent) {
  serve_fixture fx(508);
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  cof::serve::server srv(fx.idx, sopt);

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = srv.submit(fx.pool[0], 2).get();
  const auto wall_us = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  EXPECT_GE(res.request_id, 1u);
  EXPECT_GT(res.timing.device_us, 0u) << "coalesced query took zero time?";
  // Per-segment microsecond truncation can only lose time, never invent it.
  EXPECT_LE(res.timing.total_us(), wall_us + 4);
  srv.shutdown();
}

/// The flow-event chain acceptance bar: exporting a traced serving run and
/// re-parsing it, every request id admitted forms one CONNECTED chain —
/// 's' (admission) first, then at least one 't' hand-off, then 'f'
/// (fulfilment), in timestamp order.
TEST(ServeTelemetry, FlowChainIsConnectedPerRequest) {
  serve_fixture fx(509);
  obs::run_scope scope(true);
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  sopt.batch_window_us = 20000;  // coalesce the burst: chains share batches
  cof::serve::server srv(fx.idx, sopt);

  constexpr usize kRequests = 6;
  std::vector<std::future<cof::serve::request_result>> futs;
  for (usize i = 0; i < kRequests; ++i) {
    futs.push_back(srv.submit(fx.pool[i % fx.pool.size()], 1));
  }
  std::vector<u64> ids;
  for (auto& f : futs) ids.push_back(f.get().request_id);
  const std::string json = obs::trace_json();
  srv.shutdown();

  const testjson::jvalue doc = testjson::parse_json(json);
  std::map<u64, std::vector<std::pair<double, std::string>>> chains;
  for (const auto& ev : doc.at("traceEvents").arr) {
    if (!ev.has("name") || ev.at("name").str != "serve.request") continue;
    chains[static_cast<u64>(ev.at("id").num)].push_back(
        {ev.at("ts").num, ev.at("ph").str});
  }
  for (const u64 id : ids) {
    auto it = chains.find(id);
    ASSERT_NE(it, chains.end()) << "request " << id << " has no flow events";
    auto& chain = it->second;
    std::stable_sort(chain.begin(), chain.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_GE(chain.size(), 3u) << "request " << id << " chain too short";
    EXPECT_EQ(chain.front().second, "s") << "request " << id;
    EXPECT_EQ(chain.back().second, "f") << "request " << id;
    usize steps = 0;
    for (usize i = 1; i + 1 < chain.size(); ++i) {
      EXPECT_EQ(chain[i].second, "t") << "request " << id << " event " << i;
      ++steps;
    }
    EXPECT_GE(steps, 1u) << "request " << id << " never crossed a hand-off";
  }
  EXPECT_EQ(chains.size(), kRequests);
}

/// stats_json()/health() stay parseable and consistent while 4 concurrent
/// clients hammer the server — the `!stats`/`!health` control-line payloads,
/// exercised at the layer the CLI wires them from. tsan label.
TEST(ServeTelemetry, StatsJsonAndHealthUnderConcurrentClients) {
  serve_fixture fx(510);
  obs::metrics_registry::global().reset();
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  sopt.batch_window_us = 2000;
  cof::serve::server srv(fx.idx, sopt);

  constexpr usize kClients = 4;
  constexpr usize kPerClient = 4;
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  std::vector<char> ok(kClients, 1);
  for (usize c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (usize i = 0; i < kPerClient; ++i) {
        if (srv.submit(fx.pool[c % fx.pool.size()], 1).get().records.empty() &&
            !serial_records(fx.g, {{fx.pool[c % fx.pool.size()], 1}}).empty()) {
          ok[c] = 0;
        }
      }
    });
  }
  // Poll the live surface while the clients run: every snapshot must parse.
  usize polls = 0;
  while (!done.load() && polls < 1000) {
    const testjson::jvalue live = testjson::parse_json(srv.stats_json());
    EXPECT_TRUE(live.has("health"));
    ++polls;
    if (live.at("served").num >= kClients * kPerClient) done.store(true);
  }
  for (auto& t : clients) t.join();
  for (usize c = 0; c < kClients; ++c) EXPECT_TRUE(ok[c]) << "client " << c;
  // set_value resolves a future before the dispatcher finishes the batch's
  // own bookkeeping — wait for the counters to settle before asserting.
  for (usize spin = 0; spin < 2000; ++spin) {
    const auto st = srv.stats();
    if (st.served >= kClients * kPerClient && st.in_flight == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const testjson::jvalue doc = testjson::parse_json(srv.stats_json());
  EXPECT_EQ(doc.at("health").str, "ok");
  EXPECT_EQ(doc.at("admitted").num, kClients * kPerClient);
  EXPECT_EQ(doc.at("served").num, kClients * kPerClient);
  EXPECT_EQ(doc.at("failed").num, 0.0);
  EXPECT_EQ(doc.at("in_flight").num, 0.0);
  EXPECT_EQ(doc.at("queue_depth").num, 0.0);
  EXPECT_EQ(doc.at("latency_us").at("count").num, kClients * kPerClient);
  EXPECT_GT(doc.at("latency_us").at("p50").num, 0.0);
  EXPECT_GE(doc.at("latency_us").at("p99").num,
            doc.at("latency_us").at("p50").num);
  EXPECT_GT(doc.at("resident").at("bytes").num, 0.0)
      << "served requests left nothing device-resident?";
  EXPECT_GT(doc.at("uptime_s").num, 0.0);
  EXPECT_EQ(srv.health(), cof::serve::health_state::ok);

  srv.shutdown();
  EXPECT_EQ(srv.health(), cof::serve::health_state::draining);
  EXPECT_EQ(testjson::parse_json(srv.stats_json()).at("health").str,
            "draining");
}

// --- sharded serving ---------------------------------------------------------
//
// A server over a multi-device session: concurrency and coalescing compose
// with the shard layer (byte-identity holds with clients hammering a
// 2-device session), the `!stats` payload grows a per-device residency
// array, and a device dying mid-serve degrades health() without failing a
// single request.

/// 4 concurrent clients against a session sharded over 2 devices: every
/// request byte-identical to the serial reference, and the per-device
/// stats_json rows account for the full resident footprint.
TEST(ServeSharded, ConcurrentClientsOnTwoDevicesServedIdentically) {
  serve_fixture fx(513);
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  sopt.engine.num_devices = 2;
  sopt.batch_window_us = 2000;
  cof::serve::server srv(fx.idx, sopt);

  constexpr usize kClients = 4;
  constexpr usize kPerClient = 5;
  std::vector<std::vector<cof::ot_record>> refs;
  for (usize c = 0; c < kClients; ++c) {
    refs.push_back(serial_records(fx.g, {{fx.pool[c % fx.pool.size()], 1}}));
  }
  std::vector<std::thread> clients;
  std::vector<char> ok(kClients, 1);
  for (usize c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (usize i = 0; i < kPerClient; ++i) {
        auto res = srv.submit(fx.pool[c % fx.pool.size()], 1).get();
        if (res.records != refs[c]) ok[c] = 0;
      }
    });
  }
  for (auto& t : clients) t.join();
  for (usize c = 0; c < kClients; ++c) EXPECT_TRUE(ok[c]) << "client " << c;
  EXPECT_EQ(srv.health(), cof::serve::health_state::ok);

  const testjson::jvalue doc = testjson::parse_json(srv.stats_json());
  ASSERT_TRUE(doc.has("devices"));
  const auto& devs = doc.at("devices").arr;
  ASSERT_EQ(devs.size(), 2u);
  double resident_sum = 0, slot_sum = 0;
  for (const auto& d : devs) {
    EXPECT_EQ(d.at("name").str.rfind("xpu", 0), 0u);
    EXPECT_TRUE(d.at("alive").b);
    EXPECT_GT(d.at("slots").num, 0.0) << "a device owns no slots";
    EXPECT_GT(d.at("resident_bytes").num, 0.0)
        << "a served device holds nothing resident";
    resident_sum += d.at("resident_bytes").num;
    slot_sum += d.at("slots").num;
  }
  EXPECT_EQ(resident_sum, doc.at("resident").at("bytes").num)
      << "per-device residency does not add up to the session total";
  EXPECT_EQ(slot_sum, static_cast<double>(sopt.engine.num_queues *
                                          sopt.engine.num_devices));
  EXPECT_EQ(doc.at("migrations").num, 0.0);

  srv.shutdown();
  const auto st = srv.stats();
  EXPECT_EQ(st.served, kClients * kPerClient);
  EXPECT_EQ(st.failed, 0u);
}

/// A shard device dying under live traffic: the session migrates its slots
/// to the survivor, every in-flight and later request is still served
/// byte-identically — and health()/stats_json surface the capacity loss as
/// degraded + a dead device row, which a fresh server clears.
TEST(ServeSharded, DeadDeviceDegradesHealthWithoutFailingRequests) {
  serve_fixture fx(514);
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  sopt.engine.num_devices = 2;
  const auto ref = serial_records(fx.g, {{fx.pool[0], 2}});

  fault::scope guard("dev.launch@1=always");
  cof::serve::server srv(fx.idx, sopt);
  for (usize i = 0; i < 3; ++i) {
    EXPECT_EQ(srv.submit(fx.pool[0], 2).get().records, ref) << "request " << i;
  }
  EXPECT_EQ(srv.health(), cof::serve::health_state::degraded)
      << "a dead shard device must be operator-visible";
  EXPECT_EQ(srv.session().failed_devices(), 1u);
  EXPECT_GE(srv.session().device_migrations(), 1u);

  const testjson::jvalue doc = testjson::parse_json(srv.stats_json());
  EXPECT_EQ(doc.at("health").str, "degraded");
  const auto& devs = doc.at("devices").arr;
  ASSERT_EQ(devs.size(), 2u);
  EXPECT_TRUE(devs[0].at("alive").b);
  EXPECT_FALSE(devs[1].at("alive").b);
  EXPECT_EQ(devs[1].at("resident_bytes").num, 0.0)
      << "a dead device still holds resident chunks";
  EXPECT_GE(doc.at("migrations").num, 1.0);
  srv.shutdown();
  const auto st = srv.stats();
  EXPECT_EQ(st.served, 3u);
  EXPECT_EQ(st.failed, 0u);
}

/// Health degrades on windowed rejection pressure: a run of wrong-length
/// submits pushes the sliding-window rejection rate over the threshold;
/// because the window slides, the verdict is about NOW, not history.
TEST(ServeTelemetry, HealthDegradesOnRejectionPressure) {
  serve_fixture fx(511);
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  cof::serve::server srv(fx.idx, sopt);
  EXPECT_EQ(srv.health(), cof::serve::health_state::ok) << "no data yet";
  for (usize i = 0; i < 32; ++i) {
    EXPECT_THROW((void)srv.submit("ACGT", 1), cof::index_error);
  }
  EXPECT_EQ(srv.health(), cof::serve::health_state::degraded);
  srv.shutdown();
}

/// Soak: the windowed percentiles validate against the measured per-request
/// latencies — feeding the envelope timings into a fresh histogram with the
/// same bounds reproduces the served percentiles (within the per-segment
/// microsecond truncation the envelope pays, bounded by one bucket).
TEST(ServeTelemetry, SoakWindowedPercentilesMatchMeasuredLatencies) {
  serve_fixture fx(512);
  obs::metrics_registry::global().reset();
  cof::serve::server_options sopt;
  sopt.engine = fx.warm_options();
  sopt.batch_window_us = 0;
  cof::serve::server srv(fx.idx, sopt);

  std::mt19937 rng(81);
  std::vector<u64> measured;
  constexpr usize kRequests = 40;
  for (usize i = 0; i < kRequests; ++i) {
    const auto res =
        srv.submit(fx.pool[rng() % fx.pool.size()], 1 + i % 2).get();
    measured.push_back(res.timing.total_us());
  }
  srv.shutdown();

  auto& reg = obs::metrics_registry::global();
  auto& served = reg.histogram("serve.latency_us",
                               obs::default_latency_bounds_us());
  auto& windowed = reg.windowed("serve.latency_us",
                                obs::default_latency_bounds_us());
  ASSERT_EQ(served.count(), kRequests);
  // The soak is far shorter than the 10 s window: nothing expired, so the
  // windowed view must agree with the lifetime view exactly.
  EXPECT_EQ(windowed.count(), kRequests);
  EXPECT_EQ(windowed.quantile(0.5), served.quantile(0.5));
  EXPECT_EQ(windowed.quantile(0.99), served.quantile(0.99));

  obs::histogram_metric expected(obs::default_latency_bounds_us());
  for (const u64 us : measured) expected.observe(us);
  const auto lo_hi = std::minmax_element(measured.begin(), measured.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const double got = windowed.quantile(q);
    const double want = expected.quantile(q);
    // Envelope totals truncate each of 4 segments (≤ 3 us loss vs the
    // single-subtraction server measurement) — allow that plus 10% of the
    // value for samples the truncation shifts across a bucket boundary.
    EXPECT_NEAR(got, want, 4.0 + 0.1 * std::max(got, want)) << "q=" << q;
    EXPECT_GE(got + 4.0, static_cast<double>(*lo_hi.first)) << "q=" << q;
    EXPECT_LE(got, static_cast<double>(*lo_hi.second) + 4.0) << "q=" << q;
  }
}

}  // namespace
