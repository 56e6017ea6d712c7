// cold_stream: run_search_streaming over a FASTA written once per seed, PAM
// NRG, 8 guides, on each of the four facades with the facades interleaved —
// the paper's OpenCL-vs-SYCL comparison, and the only workload that runs
// decode, pack, finder, spill and merge.
#include <algorithm>

#include "bench_common.hpp"
#include "core/engine_stream.hpp"
#include "core/kernels_swar.hpp"
#include "genome/fasta_stream.hpp"
#include "gpumodel/specs.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

constexpr usize kGuides = 8;
constexpr usize kRepeatGuides = 1;
/// Facade-interleaved rounds of a traced run (their medians give
/// search_s.<f> and the untraced side of trace.overhead_pct).
constexpr usize kTraceRounds = 2;

struct decoded_chunk {
  u32 chrom = 0;
  u64 start = 0;
  std::string text;
};

/// The streaming engine's chunking, driven through fasta_stream: chunks of up
/// to max_chunk bases with a plen-1 overlap carried across chunk boundaries.
std::vector<decoded_chunk> decode_chunks(const std::string& path, usize max_chunk,
                                         usize overlap, u64& bases) {
  std::vector<decoded_chunk> out;
  u32 chrom = 0;
  for (const auto& file : genome::fasta_files_at(path)) {
    genome::fasta_stream s(file);
    for (; s.next_record(); ++chrom) {
      std::string carry;
      u64 next_start = 0;
      for (;;) {
        std::string buf = std::move(carry);
        carry.clear();
        const usize got = s.read_bases(buf, max_chunk - buf.size());
        bases += got;
        if (got == 0) break;
        const bool done = buf.size() < max_chunk;
        decoded_chunk c{chrom, next_start, {}};
        if (!done) {
          next_start += buf.size() - overlap;
          carry.assign(buf.data() + buf.size() - overlap, overlap);
        }
        c.text = std::move(buf);
        out.push_back(std::move(c));
        if (done) break;
      }
    }
  }
  return out;
}

/// Replay one facade's search through the public layer functions. The
/// default facade (sycl) also replays format, spill and merge under their
/// layer names; the others format under "verify.<f>" so only their device
/// layers are attributed.
std::vector<cof::ot_record> replay_facade(const facade& f, const inputs& in,
                                          const std::vector<decoded_chunk>& chunks,
                                          const std::string& spill_path,
                                          tracer& tr, result& r) {
  const bool full = &f == &default_facade();
  const std::string fx = f.name;
  const cof::device_pattern pat = cof::make_pattern(in.cfg.pattern);
  std::vector<cof::device_pattern> queries;
  std::vector<u16> thresholds;
  for (const auto& q : in.cfg.queries) {
    queries.push_back(cof::make_query(q.seq));
    thresholds.push_back(q.max_mismatches);
  }

  std::vector<cof::ot_record> records;
  tr.span("replay." + fx, [&] {
    auto pipe = tr.span("setup." + fx, [&] { return make_facade_pipeline(f.kind); });
    std::unique_ptr<cof::record_spill_writer> writer;
    if (full) writer = std::make_unique<cof::record_spill_writer>(spill_path);
    for (const auto& ch : chunks) {
      tr.span("h2d." + fx, [&] { pipe->load_chunk(ch.text); });
      const u32 hits = tr.span("finder." + fx, [&] { return pipe->run_finder(pat); });
      if (hits == 0) continue;
      tr.span("comparer." + fx,
              [&] { pipe->launch_comparer_batch(queries, thresholds).wait(); });
      const auto e = tr.span("fetch." + fx, [&] { return pipe->fetch_entries(); });
      tr.span(full ? "format" : "verify." + fx, [&] {
        std::vector<cof::ot_record> batch;
        batch.reserve(e.size());
        for (usize i = 0; i < e.size(); ++i) {
          const std::string_view slice(ch.text.data() + e.loci[i], pat.plen);
          batch.push_back(cof::ot_record{
              e.qidx[i], ch.chrom, ch.start + e.loci[i], e.dir[i], e.mm[i],
              cof::make_site_string(queries[e.qidx[i]].seq, slice, e.dir[i])});
        }
        if (full) {
          r.add("format.records", static_cast<double>(batch.size()));
          tr.span("spill", [&] { writer->spill(batch); });
        } else {
          records.insert(records.end(), std::make_move_iterator(batch.begin()),
                         std::make_move_iterator(batch.end()));
        }
      });
    }
    if (full) {
      r.set("spill.runs", static_cast<double>(writer->runs()));
      tr.span("merge", [&] {
        writer->finish();
        cof::merge_spill_runs({writer->path()}, [&](cof::ot_record&& rec) {
          records.push_back(std::move(rec));
        });
      });
    } else {
      tr.span("verify." + fx, [&] { cof::sort_and_dedup(records); });
    }

    const cof::pipeline_metrics& m = pipe->metrics();
    r.set("h2d.bytes." + fx, static_cast<double>(m.h2d_bytes));
    r.set("d2h.bytes." + fx, static_cast<double>(m.d2h_bytes));
    r.set("kernel.busy_s." + fx, 1e-9 * static_cast<double>(m.kernel_nanos));
    if (full) {
      double positions = 0;
      for (const auto& ch : chunks) {
        if (ch.text.size() >= pat.plen) positions += static_cast<double>(ch.text.size() - pat.plen + 1);
      }
      const double loci = static_cast<double>(m.total_loci);
      r.set("finder.loci", loci);
      r.set("finder.launches", static_cast<double>(m.finder_launches));
      r.set("finder.yield", positions > 0 ? loci / positions : 0);
      r.set("comparer.entries", static_cast<double>(m.total_entries));
      r.set("comparer.launches", static_cast<double>(m.comparer_launches));
      r.set("comparer.yield",
            loci > 0 ? static_cast<double>(m.total_entries) /
                           (loci * static_cast<double>(queries.size()))
                     : 0);
    }
  });
  return records;
}

/// One counting run per facade at the bench/ harnesses' projection scale,
/// projected onto the MI100. Never reported in place of a wall time.
void add_modelled(result& r) {
  const bench::dataset ds = bench::make_dataset("hg19", 512);
  const auto& gpu = gpumodel::gpu_by_name("MI100");
  struct side {
    cof::backend_kind kind;
    const char* name;
    usize run_wg;    // as table8_elapsed_time runs the two host programs
    u32 model_wg;
  };
  for (const side s : {side{cof::backend_kind::sycl, "sycl", 256, 256},
                       side{cof::backend_kind::opencl, "opencl", 0, 64}}) {
    const bench::measured_run m =
        bench::run_counting(ds, s.kind, cof::comparer_variant::base, s.run_wg);
    const auto p = gpumodel::project_elapsed(
        gpu, bench::make_projection(ds, m, cof::comparer_variant::base, s.model_wg));
    const std::string fx = s.name;
    r.set("modelled.finder_s." + fx, p.finder_s);
    r.set("modelled.comparer_s." + fx, p.comparer_s);
    r.set("modelled.transfer_s." + fx, p.transfer_s);
    r.set("modelled.elapsed_s." + fx, p.total_s);
    const auto& pm = m.metrics.pipeline;
    r.info["modelled_counts." + fx] =
        "loci=" + std::to_string(pm.total_loci) +
        " entries=" + std::to_string(pm.total_entries) +
        " launches=" + std::to_string(pm.finder_launches + pm.comparer_launches) +
        " h2d=" + std::to_string(pm.h2d_bytes) + " d2h=" + std::to_string(pm.d2h_bytes);
  }
}

}  // namespace

result run_cold_stream(const run_args& a) {
  result r;
  add_fingerprint(r, a);
  const inputs in = make_inputs(a.seed, kPatternNRG, kGuides, kRepeatGuides);
  const std::string fasta = a.work_dir + "/cold.fa";
  genome::write_fasta_file(fasta, in.g.chroms);
  r.info["guides"] = std::to_string(in.cfg.queries.size());
  r.info["oracle_records"] = std::to_string(in.oracle.size());
  r.info["generate_s"] = std::to_string(in.generate_s);
  r.info["oracle_s"] = std::to_string(in.oracle_s);

  std::map<std::string, std::vector<double>> rss_mb;  // per facade, each search's peak
  auto search = [&](const facade& f) {
    cof::engine_options opt;
    opt.backend = f.kind;
    reset_peak_rss();
    const double t0 = now_s();
    cof::streamed_outcome out = cof::run_search_streaming(in.cfg, fasta, opt);
    const double dt = now_s() - t0;
    rss_mb[f.name].push_back(peak_rss_mb());
    ++r.attempted;
    r.check(out.records == in.oracle, std::string("cold_stream/") + f.name);
    r.add("recover.retries", static_cast<double>(out.metrics.recovery.overflow_retries));
    return std::make_pair(dt, std::move(out));
  };

  // Set-up: one discarded search per facade (pipeline construction, thread
  // pool start, first-touch of every buffer).
  double setup = 0;
  for (const auto& f : facades()) setup += search(f).first;
  rss_mb.clear();

  // Timed rounds: one search per facade, the starting facade rotating. The
  // latency is the sum of the facades' median searches: one paper
  // comparison, with each facade's outliers rejected on their own.
  std::map<std::string, std::vector<double>> per_facade_ms;
  cof::stream_stage_times stages;
  const double t_end = now_s() + a.seconds;
  for (usize round = 0;; ++round) {
    for (usize k = 0; k < facades().size(); ++k) {
      const facade& f = facades()[(round + k) % facades().size()];
      auto [dt, out] = search(f);
      per_facade_ms[f.name].push_back(1e3 * dt);
      if (&f == &default_facade()) stages = out.stage_times;
    }
    if (a.trace ? round + 1 >= kTraceRounds : now_s() >= t_end) break;
  }
  double comparison_ms = 0;
  for (const auto& [name, v] : per_facade_ms) {
    comparison_ms += median(v);
    r.info["search_ms." + name] = join(v);
  }
  double rss_peak = 0;  // the hungriest facade's typical search
  for (const auto& [name, v] : rss_mb) {
    rss_peak = std::max(rss_peak, median(v));
    r.info["rss_mb." + name] = join(v);
  }

  if (!a.trace) {
    r.set("setup_s", setup);
    r.set("latency_p50_ms", comparison_ms);
    r.set("peak_rss_mb", rss_peak);
    return r;
  }

  for (const auto& [name, v] : per_facade_ms) r.set("search_s." + name, 1e-3 * median(v));
  r.set("stage.decode_s", stages.decode_s);
  r.set("stage.queue_wait_s", stages.queue_wait_s);
  r.set("stage.device_s", stages.device_s);
  r.set("stage.format_s", stages.format_s);
  r.set("stage.merge_s", stages.merge_s);

  tracer tr;
  const cof::device_pattern pat = cof::make_pattern(in.cfg.pattern);
  const usize overlap = pat.plen - 1;
  u64 bases = 0;
  const auto chunks = tr.span("decode", [&] {
    return decode_chunks(fasta, cof::engine_options{}.max_chunk, overlap, bases);
  });
  r.set("decode.bases", static_cast<double>(bases));
  tr.span("pack", [&] {
    for (const auto& ch : chunks) (void)cof::swar_pack(ch.text);
  });
  for (const auto& f : facades()) {
    const auto records = replay_facade(f, in, chunks, a.work_dir + "/replay.run", tr, r);
    r.check(records == in.oracle, std::string("cold_stream replay/") + f.name);
  }
  add_layer_busy(r, tr);
  // Traced replay (decode + pack once, then every facade) against the
  // untraced comparison.
  r.set("trace.overhead_pct", 100.0 * (tr.root_seconds() / (1e-3 * comparison_ms) - 1.0));
  tr.write_chrome_json(a.trace_dir + "/trace_cold_stream.json");
  add_modelled(r);
  return r;
}

}  // namespace perfbench
