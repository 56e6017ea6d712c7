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
#include "core/shard_policy.hpp"
#include "genome/chunker.hpp"

namespace cof {

struct genome_index;  // core/index.hpp

enum class backend_kind { serial, opencl, sycl, sycl_usm, sycl_twobit };

const char* backend_name(backend_kind k);

struct engine_options {
  backend_kind backend = backend_kind::sycl;
  /// opt6 (the packed-word finder and comparer) is the production default;
  /// the paper's benches and the gpumodel projections pin base..opt4.
  comparer_variant variant = comparer_variant::opt6;
  /// 0 = backend default (OpenCL: runtime-chosen; SYCL: 256, as in the paper).
  usize wg_size = 0;
  /// Maximum chunk fed to the device at once.
  usize max_chunk = usize{4} << 20;
  /// Instrumented kernels; event counts recorded into `profiler`.
  bool counting = false;
  prof::profiler* profiler = nullptr;
  /// Compare every query in one kernel launch per chunk (the batched
  /// multi-query comparer extension) instead of one launch per query as in
  /// the paper / upstream. Results identical; loci/flag traffic amortised.
  /// Supported by the buffer-based SYCL pipeline; other backends fall back
  /// to per-query launches.
  bool batch_queries = false;
  /// Streaming mode (run_search_streaming) only: drive the two-deep async
  /// pipeline — decode of chunk N+1 overlaps the device phase of chunk N,
  /// every chunk's queries go through ONE batched comparer launch with a
  /// deferred entry download, and record formatting runs on the shared
  /// thread pool. false preserves the synchronous per-query loop (the PR 1
  /// behaviour, kept as the bench baseline). Results are identical.
  bool stream_async = true;
  /// Host threads, each driving its own pipeline over a shared chunk queue
  /// — the multi-device extension the paper marks as future work ("the SYCL
  /// application currently executes on a single GPU device"). Results are
  /// identical for any value (canonical order + dedup). 0/1 = single queue.
  /// Applies to run_search and run_search_streaming (async path).
  /// With num_devices > 1 this is the consumer count PER DEVICE.
  usize num_queues = 1;
  /// Streaming (async) and warm index paths: shard chunks across this many
  /// simulated xpu devices (core/shard.hpp device_set), each with its own
  /// pipelines and spill runs; the k-way merge keeps records byte-identical
  /// for any device count. 0/1 = the single global simulator device.
  usize num_devices = 1;
  /// Chunk-to-device assignment policy when num_devices > 1.
  shard_policy shard = shard_policy::round_robin;
  /// Cap on per-chunk device entry allocations (see
  /// pipeline_options::max_entries). 0 = worst-case sizing (never
  /// overflows); a too-small cap aborts with an overflow report instead of
  /// writing out of bounds.
  usize max_entries = 0;
  /// Non-empty: enable the obs subsystem for this run and write a Chrome
  /// trace-event JSON (Perfetto / chrome://tracing loadable) of the run's
  /// spans and counter tracks to this path. Empty (default): tracing stays
  /// off and every probe is a single relaxed atomic load.
  std::string trace_out;
  /// Non-empty: enable the obs subsystem and write the metrics-registry
  /// snapshot (counters / gauges / latency histograms) as JSON to this path.
  std::string metrics_json;
  /// Fault-injection plan for this run ("site=mode[,site=mode...]"; see
  /// fault/fault.hpp). Applied on top of the COF_FAULT environment variable.
  /// Empty (default): nothing armed beyond COF_FAULT.
  std::string faults;
  /// Streaming only: when a chunk overflows its max_entries-capped device
  /// allocation, retry it with a geometrically grown capacity (bounded by
  /// the worst case) or split it in half instead of dying. false restores
  /// the fatal overflow report.
  bool overflow_recovery = true;
  /// Overflow recovery: retry capacities never grow past this many entries;
  /// once a retry would exceed it the chunk is split in half instead
  /// (bounded-memory guarantee). 0 = no cap (grow to worst case, no splits).
  usize max_retry_entries = 0;
  /// Streaming bounded-queue hand-off timeout. A push/pop that waits this
  /// long reports a stall (queue.push / queue.pop failure) instead of
  /// hanging the run forever.
  usize queue_timeout_ms = 60000;
  /// Warm query path: total device-residency budget (bytes) an
  /// index_query_session may pin across its slots. Each slot keeps a
  /// multi-chunk resident set (chunk text + candidate loci/flags stay on
  /// the device between query() calls) and evicts least-recently-used
  /// chunks once its share of the budget is exceeded; the chunk being
  /// served is always admitted, so an undersized budget degrades to
  /// re-uploads, never to a failure. 0 = unbounded.
  usize resident_bytes = usize{256} << 20;
  /// Warm query path: answer the queries against this prebuilt genome index
  /// (comparer-only launches — no FASTA decode, no finder). The index must
  /// outlive the run. Takes precedence over index_path.
  const genome_index* index = nullptr;
  /// Warm/cold index cache: when non-empty and `index` is null, load the
  /// .cofidx file at this path if it exists (cache hit), otherwise build the
  /// index from the input genome and persist it here (cache miss), then
  /// answer the queries against it.
  std::string index_path;
};

/// Overflow/fault recovery accounting for one streaming run.
struct recovery_metrics {
  util::u64 overflow_retries = 0;     // chunk re-runs with a grown capacity
  util::u64 chunk_splits = 0;         // chunks split in half after an overflow
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

/// Resolve cfg.genome_path: "synth:..." URI or filesystem path.
genome::genome_t load_configured_genome(const search_config& cfg);

/// Run the full search with the chosen backend.
search_outcome run_search(const search_config& cfg, const genome::genome_t& g,
                          const engine_options& opt = {});

}  // namespace cof
