// Top-level search engine: loads/chunks the genome, drives a device
// pipeline (OpenCL-style or SYCL-style host program) or the serial
// reference, assembles and deduplicates result records, and reports the
// run metrics the benchmark harnesses consume.
#pragma once

#include <memory>
#include <string>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "core/results.hpp"
#include "core/serial_ref.hpp"
#include "fault/fault.hpp"
#include "genome/chunker.hpp"
#include "obs/trace.hpp"

namespace cof {

enum class backend_kind { serial, opencl, sycl, sycl_usm, sycl_twobit };

const char* backend_name(backend_kind k);

struct engine_options {
  backend_kind backend = backend_kind::sycl;
  /// opt6 (the packed-word finder and comparer) is the production default;
  /// the paper's benches and the gpumodel projections pin base..opt4. The
  /// variant also picks the comparer's launch shape: base..opt4 launch the
  /// per-query `comparer/<variant>` kernel once per guide, as in the paper
  /// / upstream; opt6 launches its batched packed-word comparer once per
  /// chunk for every guide. Records are identical for every variant.
  comparer_variant variant = comparer_variant::opt6;
  /// 0 = backend default (OpenCL: runtime-chosen; SYCL: 256, as in the paper).
  usize wg_size = 0;
  /// Maximum chunk fed to the device at once.
  usize max_chunk = usize{4} << 20;
  /// Instrumented kernels; event counts recorded into `profiler`.
  bool counting = false;
  prof::profiler* profiler = nullptr;
  /// Host threads, each driving its own pipeline over a shared chunk queue
  /// — the multi-device extension the paper marks as future work ("the SYCL
  /// application currently executes on a single GPU device"). Results are
  /// identical for any value (canonical order + dedup). 0/1 = single queue.
  /// With num_devices > 1 this is the consumer count PER DEVICE.
  usize num_queues = 1;
  /// Shard chunks across this many simulated xpu devices (core/shard.hpp
  /// device_set), cold and warm, each with its own pipelines and spill
  /// runs; every consumer on every device takes from one chunk queue, and
  /// the k-way merge keeps records byte-identical for any device count.
  /// 0/1 = the single global simulator device.
  usize num_devices = 1;
  /// Cap on per-chunk device entry allocations (see
  /// pipeline_options::max_entries). 0 = worst-case sizing (never
  /// overflows). A chunk that overflows a too-small cap is retried with a
  /// grown capacity (core/recovery.hpp).
  usize max_entries = 0;
  /// Non-empty: enable the obs subsystem for this run and write a Chrome
  /// trace-event JSON (Perfetto / chrome://tracing loadable) of the run's
  /// spans and counter tracks to this path. Empty (default): tracing stays
  /// off and every probe is a single relaxed atomic load.
  std::string trace_out{};
  /// Non-empty: enable the obs subsystem and write the metrics-registry
  /// snapshot (counters / gauges / latency histograms) as JSON to this path.
  std::string metrics_json{};
  /// Fault-injection plan for this run ("site=mode[,site=mode...]"; see
  /// fault/fault.hpp). Applied on top of the COF_FAULT environment variable.
  /// Empty (default): nothing armed beyond COF_FAULT.
  std::string faults{};
  /// Warm query path: total device-residency budget (bytes) an
  /// index_query_session may pin across its slots. Each slot keeps a
  /// multi-chunk resident set (chunk text + candidate loci/flags stay on
  /// the device between query() calls) and evicts least-recently-used
  /// chunks once its share of the budget is exceeded; the chunk being
  /// served is always admitted, so an undersized budget degrades to
  /// re-uploads, never to a failure. 0 = unbounded.
  usize resident_bytes = usize{256} << 20;
};

/// Overflow/fault recovery accounting for one run.
struct recovery_metrics {
  util::u64 overflow_retries = 0;     // chunk re-runs with a grown capacity
  util::u64 recovered_overflows = 0;  // overflows that ended in a clean chunk
  util::u64 spill_retries = 0;        // spill writes retried after a failure
};

struct run_metrics {
  /// Paper-style elapsed seconds: chunking + kernels + transfers + result
  /// assembly; excludes environment setup and genome file I/O.
  double elapsed_seconds = 0.0;
  /// Sum across queues; per_queue holds each queue's own accounting when
  /// num_queues > 0 workers actually ran.
  pipeline_metrics pipeline;
  std::vector<pipeline_metrics> per_queue;
  usize chunks = 0;
  recovery_metrics recovery;
};

struct search_outcome {
  std::vector<ot_record> records;
  run_metrics metrics;
};

/// Run the full search with the chosen backend. Device backends run the
/// in-memory genome through the same chunk runner as run_search_streaming
/// (core/engine_stream.hpp): queues, shards, overflow/fault recovery and
/// spilled records included.
search_outcome run_search(const search_config& cfg, const genome::genome_t& g,
                          const engine_options& opt = {});

/// A device pipeline for opt's backend, variant, work-group size and
/// profiler, with its entry allocations capped at `max_entries`.
std::unique_ptr<device_pipeline> make_pipeline(const engine_options& opt,
                                               usize max_entries);

/// Append one chunk's comparer entries to `out` as records: the chunk is
/// `text`, at offset `start` of chromosome `chrom`, and each entry's qidx
/// indexes `queries`.
void append_records(const device_pipeline::entries& e, std::string_view text, u32 chrom,
                    u64 start, const std::vector<device_pattern>& queries,
                    std::vector<ot_record>& out);

/// Per-run scoping shared by every engine entry point: enables the obs
/// subsystem when opt asks for a trace or metrics file and arms opt.faults
/// for the run. finish() is the run epilogue: it folds opt.profiler into
/// the trace and writes opt.trace_out / opt.metrics_json.
class run_scope {
 public:
  explicit run_scope(const engine_options& opt);
  void finish() const;

 private:
  const engine_options& opt_;
  obs::run_scope obs_;
  fault::scope faults_;
};

}  // namespace cof
