// Streaming search: feed a FASTA file (or directory) through device-sized
// chunks without ever holding a whole chromosome in host memory — the way
// Cas-OFFinder processes multi-gigabyte assemblies on modest hosts. Host
// memory use is O(max_chunk · num_queues), independent of genome size:
// decoded chunks fan out over a bounded queue to num_queues device
// pipelines, and each queue's formatted records spill to disk per chunk
// (sorted runs, k-way merged into canonical order at the end) instead of
// accumulating until end of run. synth: and .2bit genome lines load whole
// and then chunk through the same runner.
#pragma once

#include <functional>

#include "core/engine.hpp"

namespace cof {

/// "Where did the time go" wall-time breakdown for one streaming run (or
/// one queue of it), in seconds. Always measured (a few clock reads per
/// chunk) — independent of whether tracing is enabled. Stages overlap
/// across threads, so the components sum to more than elapsed wall time;
/// within one queue's thread they partition its loop.
struct stream_stage_times {
  double decode_s = 0;      // producer: FASTA decode + chunk assembly
                            // (and word packing under opt6)
  double queue_wait_s = 0;  // blocked on the bounded queue (push + pop) and
                            // on the previous format job (backpressure)
  double device_s = 0;      // H2D + finder + comparer batch + entry fetch
  double format_s = 0;      // record formatting + spill-run writes (pool)
  double merge_s = 0;       // final k-way merge of the spill runs
};

struct streamed_outcome {
  /// Canonical (sorted, deduplicated) records. Left empty when a record
  /// sink was supplied — the sink received them instead.
  std::vector<ot_record> records;
  std::vector<std::string> chrom_names;  // streamed order; records index it
  run_metrics metrics;
  util::u64 streamed_bases = 0;
  util::usize peak_chunk_bytes = 0;
  /// Bounded-memory accounting: the most record bytes the engine held in
  /// host memory at once — the sum over queues of the largest single-chunk
  /// batch (records spill to disk between chunks).
  util::usize peak_record_bytes = 0;
  /// Sorted runs spilled across all queues.
  util::usize spill_runs = 0;
  /// Records after the merge-dedup (== records.size() unless a sink
  /// consumed them).
  util::u64 total_records = 0;
  /// Run-wide stage breakdown: decode/merge from the producer thread,
  /// queue_wait/device/format summed across queues.
  stream_stage_times stage_times;
  /// Per-queue breakdown. decode/merge are producer-side and stay 0 here.
  std::vector<stream_stage_times> queue_stages;
  /// Per-device accounting for sharded runs (engine_options::num_devices).
  /// One entry per device even when a device failed mid-run; size 1 for
  /// single-device runs.
  struct shard_device_stats {
    std::string name;            // device_set name ("xpu0"… or the simulator)
    util::usize chunks = 0;      // chunks this device's consumers took
    bool failed = false;         // device marked dead mid-run (degraded)
    stream_stage_times stages;   // summed over the device's consumers
  };
  std::vector<shard_device_stats> device_shards;
  /// Chunks a dead device's consumers pushed back onto the chunk queue for
  /// the survivors.
  util::usize shard_reassigns = 0;
};

/// Per-record output hook for the streaming search: receives each final
/// record in canonical order, exactly once (after dedup).
using record_sink = std::function<void(ot_record&&)>;

/// Run the search against the genome line `path` (the config's genome line
/// is ignored). A FASTA file or directory streams in O(chunk) memory; a
/// synth: URI or .2bit file loads whole (genome::load_genome) and then
/// chunks. Results are identical to loading the genome and calling
/// run_search: both drive the same chunk runner, which decodes once and
/// fans the chunks out to opt.num_queues device pipelines per device over
/// one bounded queue; results stay byte-identical for any queue or device
/// count.
streamed_outcome run_search_streaming(const search_config& cfg,
                                      const std::string& path,
                                      const engine_options& opt = {});

/// As above, but hand each final record to `sink` instead of materialising
/// outcome.records — the full result set never lives in host memory, so
/// output size no longer bounds the run (write-to-file pipelines).
streamed_outcome run_search_streaming(const search_config& cfg,
                                      const std::string& path,
                                      const engine_options& opt,
                                      const record_sink& sink);

namespace detail {

/// The engine behind run_search (`g` set) and run_search_streaming (`g`
/// null: the genome line `path`): per-run obs/fault scoping, then the
/// serial reference or the chunk runner over the in-memory genome or the
/// decoded FASTA, then the run epilogue.
streamed_outcome run_engine(const search_config& cfg, const genome::genome_t* g,
                            const std::string& path, const engine_options& opt,
                            const record_sink& sink);

}  // namespace detail
}  // namespace cof
