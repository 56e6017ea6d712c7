// casoffinder_cli — a Cas-OFFinder-compatible command-line front end.
//
//   $ ./examples/casoffinder_cli input.txt S out.txt
//
// Mirrors the upstream invocation `cas-offinder {input} {C|G|A} {output}`:
// the second argument picks the compute path —
//   C  serial CPU reference
//   G  the simulated accelerator via the SYCL host program (as the paper's
//      migrated application)
//   O  the simulated accelerator via the OpenCL host program (the original)
// plus engine knobs for work-group size, comparer variant and chunk size.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <thread>

#include "core/engine.hpp"
#include "core/engine_stream.hpp"
#include "core/index.hpp"
#include "core/scoring.hpp"
#include "fault/fault.hpp"
#include "genome/fasta.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

/// End the run on an exception: a hostile input file, FASTA or .cofidx
/// prints `error: <message>` and exits 2; anything else (injected faults,
/// stalls) is a fatal error.
[[noreturn]] void fail(const std::exception& e) {
  if (dynamic_cast<const cof::config_error*>(&e) != nullptr ||
      dynamic_cast<const genome::fasta_error*>(&e) != nullptr ||
      dynamic_cast<const cof::index_error*>(&e) != nullptr) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
  util::die(e.what());
}

/// The backend a device letter picks. Throws config_error for an unknown
/// letter.
cof::backend_kind parse_device(const std::string& dev) {
  switch (dev.empty() ? 'G' : dev[0]) {
    case 'C': case 'c': return cof::backend_kind::serial;
    case 'O': case 'o': return cof::backend_kind::opencl;
    case 'G': case 'g': case 'S': case 's': return cof::backend_kind::sycl;
    case 'U': case 'u': return cof::backend_kind::sycl_usm;
    case 'P': case 'p': return cof::backend_kind::sycl_twobit;
    default: throw cof::config_error("unknown device (use C, O, G, S, U or P): " + dev);
  }
}

/// The comparer variant a --variant name picks. Throws config_error for an
/// unknown name.
cof::comparer_variant parse_variant(const std::string& name) {
  for (int v = 0; v < cof::kNumComparerVariants; ++v) {
    const auto variant = static_cast<cof::comparer_variant>(v);
    if (name == cof::comparer_variant_name(variant)) return variant;
  }
  throw cof::config_error("unknown variant (use base, opt1..opt4 or opt6): " + name);
}

/// Write the records to `path` ('-' or empty = stdout). A path that cannot
/// be opened ends the run like any other hostile argument.
void write_output(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::fputs(text.c_str(), stdout);
    return;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) fail(cof::config_error("cannot open output file: " + path));
  out << text;
}

/// A names-only genome: what format_records reads to name the chromosomes
/// of records that come from an index or a stream.
genome::genome_t names_only(const std::vector<std::string>& names) {
  genome::genome_t g;
  for (const auto& n : names) g.chroms.push_back({n, ""});
  return g;
}

std::vector<std::string> query_seqs(const cof::search_config& cfg) {
  std::vector<std::string> qs;
  for (const auto& q : cfg.queries) qs.push_back(q.seq);
  return qs;
}

}  // namespace

int main(int argc, char** argv) {
  util::cli cli("casoffinder_cli", "Cas-OFFinder-compatible off-target search");
  cli.positional("input", "input file (genome, pattern, queries)", true);
  cli.positional("device",
                 "C = serial CPU, O = OpenCL host, G/S = SYCL host (buffers), "
                 "U = SYCL host (USM), P = SYCL host (2-bit packed)",
                 false);
  cli.positional("output", "output file ('-' or empty = stdout)", false);
  cli.opt("wg", "work-group size (0 = backend default)", "0");
  cli.opt("variant", "comparer variant: base|opt1|opt2|opt3|opt4|opt6",
          cof::comparer_variant_name(cof::engine_options{}.variant));
  cli.opt("chunk", "max device chunk bytes", "4194304");
  cli.flag("profile", "print the kernel hotspot profile (the variant's "
                      "comparer/<variant> kernel)");
  cli.flag("score", "print MIT specificity scores per guide");
  cli.flag("stream", "feed the genome through the chunk runner as it is "
                     "read: a FASTA line streams in O(chunk) host memory, "
                     "a synth: or .2bit line loads whole first");
  cli.opt("queues", "host threads each driving a device pipeline (per "
                    "device when --devices > 1)", "1");
  cli.opt("devices", "shard streamed chunks across N simulated devices, "
                     "each with its own pool and pipelines (records stay "
                     "byte-identical for any N)", "1");
  cli.opt("trace-out", "write a Chrome trace-event JSON (Perfetto-loadable) "
                       "of the run", "");
  cli.opt("metrics-json", "write the obs metrics snapshot (counters/gauges/"
                          "histograms) as JSON", "");
  cli.opt("max-entries", "cap per-chunk device entry allocations (0 = "
                         "worst-case sizing); runs recover from an "
                         "undersized cap by retrying with a grown cap", "0");
  std::string fault_help =
      "fault-injection plan, e.g. 'spill.write=hit:1,dev.launch=prob:0.01:7' "
      "(sites:";
  for (const std::string& site : fault::known_sites()) fault_help += " " + site;
  fault_help +=
      "; modes: always, hit:N, prob:P[:seed], off; a site@N suffix targets "
      "shard ordinal N, e.g. 'dev.launch@1=always' kills device 1 of a "
      "--devices set)";
  cli.opt("fault", fault_help, "");
  cli.opt("build-index", "build the genome/PAM index (decode + finder over "
                         "every chunk), persist it to this .cofidx path and "
                         "exit", "");
  cli.opt("index", ".cofidx cache path: load it if present (warm — no FASTA "
                   "decode, no finder launches), otherwise build from the "
                   "input genome and persist it here, then answer the "
                   "queries with comparer-only launches", "");
  cli.multi("query", "guide RNA GUIDE[:MM] (repeatable; replaces the input "
                     "file's query list; MM defaults to 5)");
  cli.flag("serve", "daemon mode: keep the index device-resident and answer "
                    "GUIDE[:MM] requests line-by-line from stdin (records "
                    "stream to the output as each request completes; "
                    "concurrent requests coalesce into one launch)");
  cli.opt("serve-window", "serve mode micro-batching window in microseconds "
                          "(0 = coalesce only the already-queued backlog)",
          "200");
  cli.opt("serve-batch", "serve mode cap on requests coalesced into one "
                         "launch", "64");
  cli.opt("stats-interval", "serve mode: emit a one-line stats JSON heartbeat "
                            "every N seconds (0 = off) to stderr, or to "
                            "--stats-out when set", "0");
  cli.opt("stats-out", "serve mode: append stats heartbeats to this file "
                       "(JSON lines) instead of stderr", "");
  cli.opt("slo-us", "serve mode latency SLO in microseconds: !health reports "
                    "degraded while the windowed p99 exceeds it (0 = no "
                    "latency SLO)", "0");
  if (!cli.parse(argc, argv)) return 1;

  util::set_log_level(util::log_level::warn);
  cof::search_config cfg;
  cof::engine_options opt;
  try {
    cfg = cof::read_input_file(cli.get_positional("input"));
    // Repeated --query GUIDE[:MM] replaces the input file's query list — the
    // serving shape the index exists for: one cached index, arbitrary guides.
    if (!cli.get_multi("query").empty()) {
      cfg.queries.clear();
      for (const std::string& spec : cli.get_multi("query")) {
        cfg.queries.push_back(cof::parse_guide(spec));
      }
    }
    opt.backend = parse_device(cli.get_positional("device"));
    opt.variant = parse_variant(cli.get("variant"));
    // The index build, the server and the streamed engine all drive device
    // pipelines; the serial reference has none.
    if (opt.backend == cof::backend_kind::serial) {
      const char* mode = !cli.get("build-index").empty() ? "--build-index"
                         : cli.get_flag("serve")          ? "--serve"
                         : !cli.get("index").empty()      ? "--index"
                         : cli.get_flag("stream")         ? "--stream"
                                                          : nullptr;
      if (mode != nullptr) {
        throw cof::config_error(std::string(mode) +
                                " needs a device backend (O, G, S, U or P)");
      }
    }
    // An index build and the server answer no query of the input file, so
    // there is nothing to score or profile.
    const char* report = cli.get_flag("score")     ? "--score"
                         : cli.get_flag("profile") ? "--profile"
                                                   : nullptr;
    const char* no_queries = !cli.get("build-index").empty() ? "--build-index"
                             : cli.get_flag("serve")         ? "--serve"
                                                             : nullptr;
    if (report != nullptr && no_queries != nullptr) {
      throw cof::config_error(std::string(report) + " does not apply to " +
                              no_queries);
    }
  } catch (const cof::config_error& e) {
    fail(e);
  }
  opt.wg_size = cli.get_u64("wg");
  opt.max_chunk = cli.get_u64("chunk");
  opt.num_queues = cli.get_u64("queues");
  opt.num_devices = cli.get_u64("devices");
  opt.trace_out = cli.get("trace-out");
  opt.metrics_json = cli.get("metrics-json");
  opt.max_entries = cli.get_u64("max-entries");
  opt.faults = cli.get("fault");

  prof::profiler profiler;
  if (cli.get_flag("profile")) {
    opt.counting = true;
    opt.profiler = &profiler;
  }

  // --build-index: the cold phase alone — decode + finder over every chunk,
  // persist the result, exit. Later runs pass the file via --index.
  if (!cli.get("build-index").empty()) {
    const std::string ipath = cli.get("build-index");
    util::stopwatch bsw;
    try {
      // Standalone build runs outside the engines, so arm the fault
      // registry here — injected persist failures die cleanly below.
      fault::scope fault_guard(opt.faults);
      const auto idx =
          cof::build_index(genome::load_genome(cfg.genome_path), cfg.pattern, opt);
      cof::save_index(ipath, idx);
      std::fprintf(stderr,
                   "index: built %zu chunks, %llu candidate sites over %llu "
                   "bases in %.3fs -> %s\n",
                   idx.chunks.size(),
                   static_cast<unsigned long long>(idx.total_hits()),
                   static_cast<unsigned long long>(idx.source_bases),
                   bsw.seconds(), ipath.c_str());
    } catch (const std::exception& e) {
      fail(e);
    }
    return 0;
  }
  const std::string index_path = cli.get("index");

  // --serve: the resident daemon mode. Resolve the index once (resolve_index
  // loads the .cofidx cache, or builds it and persists it at --index), hold
  // it device-resident in a serve::server, then answer line-protocol
  // requests from stdin: one `GUIDE[:MM]` per line, records for each
  // request written as soon as its future resolves, in submission order.
  if (cli.get_flag("serve")) {
    cof::run_scope run(opt);
    try {
      // The heartbeat's stats file opens once, before serving.
      const util::u64 hb_interval_s = cli.get_u64("stats-interval");
      const std::string hb_path = cli.get("stats-out");
      std::ofstream hb_file;
      if (hb_interval_s > 0 && !hb_path.empty()) {
        hb_file.open(hb_path, std::ios::app);
        if (!hb_file.good()) {
          throw cof::config_error("cannot open stats output file: " + hb_path);
        }
      }
      const cof::resolved_index resolved = cof::resolve_index(index_path, cfg, opt);
      const cof::genome_index& idx = resolved.index;
      if (resolved.cache_hit) {
        std::fprintf(stderr, "serve: index cache hit (%s)\n", index_path.c_str());
      } else if (!index_path.empty()) {
        std::fprintf(stderr, "serve: index built and persisted to %s\n",
                     index_path.c_str());
      }
      cof::serve::server_options sopt;
      sopt.engine = opt;
      sopt.batch_window_us = cli.get_u64("serve-window");
      sopt.max_batch = cli.get_u64("serve-batch");
      sopt.slo_us = cli.get_u64("slo-us");
      cof::serve::server srv(idx, sopt);
      std::fprintf(stderr,
                   "serve: %zu chunks resident-capable, pattern %s; reading "
                   "GUIDE[:MM] or !stats/!health from stdin\n",
                   idx.chunks.size(), idx.pattern.c_str());
      const genome::genome_t names = names_only(idx.chrom_names);
      const std::string outp = cli.get_positional("output");
      std::ofstream out_file;
      if (!outp.empty() && outp != "-") {
        out_file.open(outp, std::ios::binary);
        if (!out_file.good()) throw cof::config_error("cannot open output file: " + outp);
      }
      std::ostream& out = out_file.is_open()
                              ? static_cast<std::ostream&>(out_file)
                              : std::cout;

      // --stats-interval heartbeat: a sidecar thread appends the live stats
      // snapshot as JSON lines (to --stats-out, else stderr) until the
      // input loop finishes. 100 ms polling keeps shutdown prompt without a
      // condition variable. It starts after every throw above, which would
      // otherwise destroy it unjoined.
      std::atomic<bool> hb_stop{false};
      std::thread hb_thread;
      auto emit_stats = [&srv, &hb_file] {
        const std::string line = srv.stats_json();
        if (hb_file.is_open()) {
          hb_file << line << "\n" << std::flush;
        } else {
          std::fprintf(stderr, "%s\n", line.c_str());
        }
      };
      if (hb_interval_s > 0) {
        hb_thread = std::thread([&] {
          obs::set_thread_name("serve.stats");
          util::u64 slept_ms = 0;
          while (!hb_stop.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            slept_ms += 100;
            if (slept_ms < hb_interval_s * 1000) continue;
            slept_ms = 0;
            emit_stats();
          }
        });
      }

      struct in_flight {
        std::string guide;
        std::future<cof::serve::request_result> fut;
      };
      std::deque<in_flight> pending;
      auto drain = [&](bool all) {
        while (!pending.empty() &&
               (all || pending.front().fut.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready)) {
          auto req = std::move(pending.front());
          pending.pop_front();
          try {
            const auto r = req.fut.get();
            out << "# " << req.guide << " records=" << r.records.size()
                << " id=" << r.request_id
                << " queue_us=" << r.timing.queue_us
                << " batch_wait_us=" << r.timing.batch_wait_us
                << " device_us=" << r.timing.device_us
                << " demux_us=" << r.timing.demux_us << "\n"
                << cof::format_records(r.records, {req.guide}, names);
            out.flush();
          } catch (const std::exception& e) {
            out << "# " << req.guide << " error=" << e.what() << "\n";
            out.flush();
          }
        }
      };

      std::string line;
      while (std::getline(std::cin, line)) {
        const std::string spec(util::trim(line));
        if (spec.empty() || spec[0] == '#') continue;
        // Control lines: `!stats` answers with the one-line live snapshot,
        // `!health` with {"health":"ok|degraded|draining"} — both on the
        // record output stream so a driving client reads one JSON line per
        // control request, interleaved with its record blocks.
        if (spec[0] == '!') {
          if (spec == "!stats") {
            out << srv.stats_json() << "\n";
          } else if (spec == "!health") {
            out << "{\"health\":\"" << cof::serve::health_name(srv.health())
                << "\"}\n";
          } else {
            out << "# " << spec << " error=unknown control line\n";
          }
          out.flush();
          continue;
        }
        cof::query_spec q;
        try {
          q = cof::parse_guide(spec);
        } catch (const cof::config_error& e) {
          out << "# " << spec << " error=" << e.what() << "\n";
          out.flush();
          continue;
        }
        try {
          pending.push_back({q.seq, srv.submit(q.seq, q.max_mismatches)});
        } catch (const std::exception& e) {
          out << "# " << q.seq << " error=" << e.what() << "\n";
          out.flush();
        }
        drain(/*all=*/false);  // stream completed requests while reading
      }
      drain(/*all=*/true);
      if (hb_thread.joinable()) {
        hb_stop.store(true);
        hb_thread.join();
        emit_stats();  // final beat with the drained totals
      }
      srv.shutdown();
      const auto st = srv.stats();
      std::fprintf(stderr,
                   "serve: %llu requests in %llu batches (max batch %llu, "
                   "%llu rejected, %llu failed, %llu batch retries); "
                   "residency %llu uploads / %llu reuses / %llu evictions\n",
                   static_cast<unsigned long long>(st.admitted),
                   static_cast<unsigned long long>(st.batches),
                   static_cast<unsigned long long>(st.max_batch_size),
                   static_cast<unsigned long long>(st.rejected),
                   static_cast<unsigned long long>(st.failed),
                   static_cast<unsigned long long>(st.batch_retries),
                   static_cast<unsigned long long>(srv.session().chunk_misses()),
                   static_cast<unsigned long long>(srv.session().chunk_hits()),
                   static_cast<unsigned long long>(
                       srv.session().chunk_evictions()));
      run.finish();
    } catch (const std::exception& e) {
      fail(e);
    }
    return 0;
  }

  // Every run from here answers the input's queries: warm from the index,
  // streamed, or in memory. Each leaves its records and the chromosome
  // names they index; the output, scores and profile follow from those.
  std::vector<cof::ot_record> records;
  genome::genome_t names;
  if (!index_path.empty()) {
    // --index (with or without --stream): resolve_index loads the .cofidx
    // (or builds and persists it on a miss); the session answers the
    // queries with comparer-only launches — no FASTA decode, no finder.
    cof::resolved_index resolved;
    cof::search_outcome result;
    util::u64 uploads = 0, reuses = 0;
    try {
      cof::run_scope run(opt);
      resolved = cof::resolve_index(index_path, cfg, opt);
      cof::index_query_session session(resolved.index, opt);
      result = session.query(cfg.queries);
      uploads = session.chunk_misses();
      reuses = session.chunk_hits();
      run.finish();
    } catch (const std::exception& e) {
      fail(e);
    }
    const auto& rec = result.metrics.recovery;
    std::fprintf(stderr,
                 "index cache %s (%llu chunk uploads, %llu device-resident "
                 "reuses), resolved in %.3fs; %llu overflow retries, %llu "
                 "recovered overflows\n",
                 resolved.cache_hit ? "hit" : "miss",
                 static_cast<unsigned long long>(uploads),
                 static_cast<unsigned long long>(reuses), resolved.seconds,
                 static_cast<unsigned long long>(rec.overflow_retries),
                 static_cast<unsigned long long>(rec.recovered_overflows));
    std::fprintf(stderr, "%s (warm): %zu records, %.3fs over %zu chunks\n",
                 cof::backend_name(opt.backend), result.records.size(),
                 result.metrics.elapsed_seconds, result.metrics.chunks);
    records = std::move(result.records);
    names = names_only(resolved.index.chrom_names);
  } else if (cli.get_flag("stream")) {
    // Unrecoverable failures (exhausted fault retries, stalled queues)
    // surface as exceptions with the failing site in the message; report
    // them as a clean fatal error instead of std::terminate.
    cof::streamed_outcome streamed;
    try {
      streamed = cof::run_search_streaming(cfg, cfg.genome_path, opt);
    } catch (const std::exception& e) {
      fail(e);
    }
    const auto& rec = streamed.metrics.recovery;
    if (rec.overflow_retries + rec.spill_retries != 0) {
      std::fprintf(stderr,
                   "recovery: %llu overflow retries, %llu recovered "
                   "overflows, %llu spill retries\n",
                   static_cast<unsigned long long>(rec.overflow_retries),
                   static_cast<unsigned long long>(rec.recovered_overflows),
                   static_cast<unsigned long long>(rec.spill_retries));
    }
    std::fprintf(stderr,
                 "%s (streamed): %zu records, %.3fs, %llu bases through "
                 "%zu chunks (peak chunk %s)\n",
                 cof::backend_name(opt.backend), streamed.records.size(),
                 streamed.metrics.elapsed_seconds,
                 static_cast<unsigned long long>(streamed.streamed_bases),
                 streamed.metrics.chunks,
                 util::human_bytes(streamed.peak_chunk_bytes).c_str());
    if (streamed.device_shards.size() > 1) {
      for (const auto& ds : streamed.device_shards) {
        std::fprintf(stderr, "  %s: %llu chunks%s\n", ds.name.c_str(),
                     static_cast<unsigned long long>(ds.chunks),
                     ds.failed ? "  [FAILED — degraded to survivors]" : "");
      }
      if (streamed.shard_reassigns != 0) {
        std::fprintf(stderr, "  %llu chunks pushed back off dead devices\n",
                     static_cast<unsigned long long>(streamed.shard_reassigns));
      }
    }
    records = std::move(streamed.records);
    names = names_only(streamed.chrom_names);
  } else {
    util::stopwatch load_sw;
    genome::genome_t g;
    try {
      g = genome::load_genome(cfg.genome_path);
    } catch (const std::exception& e) {
      fail(e);  // e.g. a malformed FASTA (genome::fasta_error)
    }
    std::fprintf(stderr, "loaded %s: %zu sequences, %s (%.2fs)\n", g.assembly.c_str(),
                 g.chroms.size(), util::human_bytes(g.total_bases()).c_str(),
                 load_sw.seconds());

    cof::search_outcome result;
    try {
      result = cof::run_search(cfg, g, opt);
    } catch (const std::exception& e) {
      fail(e);  // e.g. a guide of the wrong length (cof::config_error)
    }
    std::fprintf(stderr,
                 "%s/%s: %zu records, %.3fs elapsed (%zu chunks, %llu loci, "
                 "%s h2d, %s d2h)\n",
                 cof::backend_name(opt.backend),
                 cof::comparer_variant_name(opt.variant), result.records.size(),
                 result.metrics.elapsed_seconds, result.metrics.chunks,
                 static_cast<unsigned long long>(result.metrics.pipeline.total_loci),
                 util::human_bytes(result.metrics.pipeline.h2d_bytes).c_str(),
                 util::human_bytes(result.metrics.pipeline.d2h_bytes).c_str());
    records = std::move(result.records);
    names = std::move(g);
  }

  write_output(cli.get_positional("output"),
               cof::format_records(records, query_seqs(cfg), names));

  if (cli.get_flag("score")) {
    const auto reports = cof::scoring::score_search(cfg, records);
    std::fprintf(stderr, "\nguide specificity (MIT/Hsu):\n%s",
                 cof::scoring::format_report(reports).c_str());
  }

  if (cli.get_flag("profile")) {
    std::fprintf(stderr, "\nkernel profile:\n%s", profiler.report().c_str());
    std::fprintf(stderr, "comparer share of kernel time: %.1f%%\n",
                 100.0 * profiler.hotspot_share(
                             std::string("comparer/") +
                             cof::comparer_variant_name(opt.variant)));
  }
  return 0;
}
