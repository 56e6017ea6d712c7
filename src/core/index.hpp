// Index/query split of the search engine. The finder's output depends only
// on (genome, PAM pattern) — not on the guides — so it is built ONCE as a
// genome_index (decoded chunk text + finder hit loci/strand flags per
// chunk), kept device-resident across query batches, and persisted to a
// versioned `.cofidx` file. Warm queries then answer any set of guide RNAs
// with comparer-only launches: zero FASTA decode, zero finder launches, and
// under opt6 N concurrent guides coalesce into one multi-query comparer
// launch per chunk.
//
//   resolved_index r = resolve_index("hg19.cofidx", cfg, opt);  // load or
//                                                               // build+save
//   index_query_session s(r.index, opt);
//   auto hits = s.query(cfg.queries);                           // comparer only
//
// File format (.cofidx version 2, little-endian; see DESIGN.md §12):
//   magic u32 'COFX' | version u32 | pattern (u32 len + bytes)
//   max_chunk u64 | source_bases u64 | genome content hash u64
//   nchroms u32, per chrom: u32 len + bytes
//   nchunks u32 | payload_bytes u64 | payload checksum u64 (util::word_hash)
//   zero padding to an 8-byte boundary
//   payload (a multiple of 8 bytes), per chunk, each array starting on an
//   8-byte boundary and zero-padded to the next:
//     chrom_index u32 | text_len u32 | start u64 | n_runs u32 | n_loci u32
//     packed2 words u64[ceil(text_len / 32)]  (swar_ref::packed2 as is)
//     runs (start u32, len u32)[n_runs] | run bytes u8[n_runs]
//       — maximal runs of one non-ACGT byte, sorted, non-overlapping
//     loci u32[n_loci]  (sorted) | flags u8[n_loci]  (0 both, 1 fw, 2 rc)
#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/shard.hpp"

namespace cof {

/// One device-chunk of the index: the decoded chunk text (overlap included,
/// byte-exact with the FASTA decode), its packed words, plus the finder's
/// output for it.
struct index_chunk {
  u32 chrom_index = 0;
  util::u64 start = 0;         // offset of text[0] within the chromosome
  /// Decoded bases, length == chunk length. load_index rebuilds it from the
  /// words and the file's runs of non-ACGT bytes.
  std::string text;
  /// swar_pack(text), packed once where the chunk is produced (build_index)
  /// or read from the .cofidx words (load_index), ambiguity flags rebuilt
  /// from the runs; packed-word pipelines upload it as is.
  swar_ref words;
  std::vector<u32> loci;       // finder hits, text-relative, ascending
  std::vector<char> flags;     // per hit: 0 = both strands, 1 = fw, 2 = rc
};

struct genome_index {
  std::string pattern;         // the PAM pattern the finder ran with
  usize max_chunk = 0;         // chunking geometry the index was built at
  util::u64 source_bases = 0;  // total bases of the source genome
  util::u64 content_hash = 0;  // genome::content_hash of the source genome
  std::vector<std::string> chrom_names;
  std::vector<index_chunk> chunks;

  util::u64 total_hits() const {
    util::u64 n = 0;
    for (const auto& c : chunks) n += c.loci.size();
    return n;
  }
};

/// Corrupt/incompatible-index failure. Unlike the engine's COF_CHECK paths
/// this THROWS (never aborts, never reads past a buffer): a damaged cache
/// file must surface as a clean, site-named error the caller can turn into
/// a rebuild or a fatal report. what() is prefixed with the site
/// ("index.load" / "index.persist").
class index_error : public std::runtime_error {
 public:
  index_error(std::string site, const std::string& message)
      : std::runtime_error(site + ": " + message), site_(std::move(site)) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// Cold phase: decode + finder over every chunk of `g` (worst-case entry
/// sizing — the index must be complete), one device pipeline per
/// opt.num_queues. Only opt.backend/variant/wg_size/num_queues matter here.
/// Each chunk's hits are sorted by locus, so one genome and pattern build
/// the same index, and save the same file, at any queue count.
/// Every chunk runs under the engine's recovery loop (core/recovery.hpp):
/// an injected overflow or a transient device fault retries the chunk on a
/// fresh pipeline, and a fault that outlasts the attempt bound propagates.
/// Throws config_error, before any work, for the serial backend, an empty or
/// non-IUPAC pattern, or an opt.max_chunk within the pattern's length.
genome_index build_index(const genome::genome_t& g, const std::string& pattern,
                         const engine_options& opt = {});

/// Persist to / restore from the versioned .cofidx format. Both throw
/// index_error (site "index.persist" / "index.load") on I/O failure,
/// truncation, bad magic, version skew (a version-1 file included),
/// checksum mismatch, or a chunk record whose counts, runs, loci or flags
/// do not fit its chunk.
void save_index(const std::string& path, const genome_index& idx);
genome_index load_index(const std::string& path);

/// Throws index_error when the index cannot answer cfg (pattern mismatch —
/// the finder ran with a different PAM, or query length != pattern length).
void check_index_compatible(const genome_index& idx, const search_config& cfg);

/// What resolve_index produced, and how.
struct resolved_index {
  genome_index index;
  bool cache_hit = false;  // loaded from the .cofidx, not built this run
  double seconds = 0;      // the load, or the build and persist
};

/// The one resolver of an index path: loads the .cofidx at `path` if it
/// exists (a hit), else builds the index from `g`, or from
/// genome::load_genome(cfg.genome_path) when `g` is null, and persists it
/// there (a miss; an empty path persists nothing). Then checks it can answer
/// cfg and, on a hit, that `g` or genome::summarize_source(cfg.genome_path)
/// has its chromosome names, base count and content hash; only a genome
/// line naming nothing on disk skips that. Throws index_error ("index
/// genome mismatch" for a foreign index), config_error or fasta_error.
resolved_index resolve_index(const std::string& path, const search_config& cfg,
                             const engine_options& opt,
                             const genome::genome_t* g = nullptr);

/// Warm phase: device-resident index for a long-lived serving process. The
/// session owns opt.num_queues slots; each chunk is pinned to one slot
/// (round-robin) and each slot keeps a MULTI-CHUNK resident set — every
/// chunk it serves stays device-resident (whatever its pipeline uploaded:
/// text and/or packed words, plus candidate loci/flags) until
/// least-recently-used eviction is forced by the byte budget
/// (engine_options::resident_bytes, split evenly across slots), so repeated
/// query() calls re-upload nothing while the working set fits (chunk_hits
/// counts device-resident reuses, chunk_misses the uploads, chunk_evictions
/// the budget-forced drops). Every query() runs the variant's comparer per
/// chunk: ONE batched launch under opt6, one launch per query under
/// base..opt4. The constructor throws config_error for the serial backend,
/// and query() throws config_error for a non-IUPAC guide.
///
/// With engine_options::num_devices > 1 the session shards its slots across
/// a device_set (opt.num_queues slots PER device, slot s pinned to device
/// s % N): each slot's resident pipelines live on its device, so the
/// working set spreads over every device's arena. A slot whose device
/// exhausts the bounded retry budget marks it failed, drops its residency
/// and migrates to a surviving device (re-uploading there on demand);
/// results stay byte-identical. When no device survives the original error
/// propagates. device_residency() / failed_devices() expose the state for
/// the serving layer's !stats and !health.
///
/// query() is safe to call from multiple threads concurrently: slots are
/// locked individually for the duration of their chunk sweep, so concurrent
/// calls interleave across slots but never race on residency state or on a
/// pipeline's staged entries. Each chunk of a sweep runs under the engine's
/// recovery loop (core/recovery.hpp): entry-buffer overflows grow the
/// sticky per-slot capacity (seeded by the true demand the error
/// round-trips), and transient device faults retire the chunk's pipeline
/// and retry, both within the same attempt bounds. The caller is
/// responsible for obs/fault scoping (run_query below, the CLI's run_scope,
/// or serve::server).
/// Trace context a caller threads through query(): when the serving layer
/// coalesces N requests into one launch it passes the batch id here so the
/// per-chunk comparer spans ("index.chunk.compare") carry it — Perfetto can
/// then correlate a request's flow arrows with the device work that served
/// it. Defaulted: standalone queries trace with batch 0.
struct query_trace {
  util::u64 batch_id = 0;
};

class index_query_session {
 public:
  index_query_session(const genome_index& idx, const engine_options& opt);
  ~index_query_session();
  index_query_session(const index_query_session&) = delete;
  index_query_session& operator=(const index_query_session&) = delete;

  search_outcome query(const std::vector<query_spec>& queries);
  search_outcome query(const std::vector<query_spec>& queries,
                       const query_trace& trace);

  util::u64 chunk_hits() const { return chunk_hits_.load(); }
  util::u64 chunk_misses() const { return chunk_misses_.load(); }
  util::u64 chunk_evictions() const { return chunk_evictions_.load(); }

  /// Residency snapshot of one shard device (for serving stats).
  struct device_residency_info {
    std::string name;
    usize slots = 0;           // slots currently pinned to this device
    usize resident_bytes = 0;  // bytes their resident sets hold on it
    util::u64 chunks = 0;      // chunk sweeps it has served
    bool alive = true;
  };
  /// Per-device snapshot (one entry per device, ordinal order). Takes each
  /// slot's mutex in turn, like resident_bytes().
  std::vector<device_residency_info> device_residency() const;
  /// Devices marked failed so far (0 on a healthy session).
  usize failed_devices() const;
  /// Slot migrations forced by device failures.
  util::u64 device_migrations() const { return migrations_.load(); }

  /// Bytes currently pinned on the device across every slot's resident set
  /// (snapshot — takes each slot's mutex in turn, so it may interleave with
  /// a concurrent query()'s admissions/evictions).
  usize resident_bytes() const;

  const genome_index& index() const { return idx_; }

 private:
  struct slot;
  const genome_index& idx_;
  engine_options opt_;
  usize slot_budget_ = 0;  // resident-byte budget per slot (0 = unbounded)
  /// Declared before slots_: slot pipelines hold buffers on these devices,
  /// so destruction must tear the slots down first.
  std::unique_ptr<shard::device_set> devs_;
  std::unique_ptr<std::atomic<util::u64>[]> dev_chunks_;  // sweeps per device
  std::vector<std::unique_ptr<slot>> slots_;
  std::atomic<util::u64> chunk_hits_{0};
  std::atomic<util::u64> chunk_misses_{0};
  std::atomic<util::u64> chunk_evictions_{0};
  std::atomic<util::u64> migrations_{0};
};

/// One-shot warm query with its own obs/fault scoping — the standalone
/// equivalent of run_search against a prebuilt index.
search_outcome run_query(const genome_index& idx,
                         const std::vector<query_spec>& queries,
                         const engine_options& opt = {});

}  // namespace cof
