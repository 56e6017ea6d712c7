// Off-target result records, ordering/deduplication across overlapping
// chunks, and the Cas-OFFinder output format:
//   <query>\t<chrom>\t<position>\t<site (mismatches lower-case)>\t<strand>\t<mm>
#pragma once

#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "genome/fasta.hpp"
#include "util/common.hpp"

namespace cof {

using util::u16;
using util::u32;
using util::u64;
using util::usize;

struct ot_record {
  u32 query_index = 0;
  u32 chrom_index = 0;
  u64 position = 0;    // 0-based within the chromosome
  char direction = '+';
  u16 mismatches = 0;
  std::string site;    // genome bases (strand-oriented), mismatches lower-case

  friend bool operator==(const ot_record&, const ot_record&) = default;
};

/// Canonical order: query, chromosome, position, direction.
void sort_records(std::vector<ot_record>& records);

/// Sort and drop duplicates produced by chunk-overlap re-scanning.
void sort_and_dedup(std::vector<ot_record>& records);

/// Build the printed site string for a hit: the genome slice (reverse-
/// complemented for '-' hits) with bases that mismatch the query printed in
/// lower case. `ref_slice` is the forward-strand genome sequence at the hit.
std::string make_site_string(const std::string& query, std::string_view ref_slice,
                             char direction);

/// Render records in the upstream output format.
std::string format_records(const std::vector<ot_record>& records,
                           const std::vector<std::string>& query_seqs,
                           const genome::genome_t& g);

/// Spill-file I/O failure. On the write side a run append or flush did not
/// reach the disk: spill() rolls the file back to the previous run boundary
/// before throwing, so the caller may retry the same batch (the streaming
/// engine does, with backoff) or abandon the run cleanly. On the read side
/// merge_spill_runs could not open a file, or found a run header or run
/// cut short.
class spill_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Streams per-chunk record batches to a temporary spill file as sorted
/// runs, so the streaming engine's host memory for records stays bounded by
/// the largest single batch instead of the whole genome's result set. Each
/// spill() sorts the batch, serialises it after a (count, bytes) run
/// header, and releases the host copy; merge_spill_runs() later k-way
/// merges every run back into canonical order. Single-owner: not
/// thread-safe (the engine chains one writer per device queue).
class record_spill_writer {
 public:
  /// Creates/truncates the spill file at `path`.
  explicit record_spill_writer(std::string path);
  /// Closes and removes the spill file.
  ~record_spill_writer();

  record_spill_writer(const record_spill_writer&) = delete;
  record_spill_writer& operator=(const record_spill_writer&) = delete;

  /// Sort `batch` into canonical order and append it as one run. The batch
  /// is consumed (cleared) so its memory can be reused. Empty batches are
  /// dropped. Throws spill_error on a write failure, after rolling the file
  /// back to the previous run boundary — the (sorted) batch is left intact
  /// so the caller can retry the same spill.
  void spill(std::vector<ot_record>& batch);

  /// Flush and close for reading. Call once, before merge_spill_runs.
  /// Throws spill_error if the flush fails.
  void finish();

  const std::string& path() const { return path_; }
  usize runs() const { return runs_; }
  u64 records() const { return records_; }
  /// Bytes of every run written so far, headers included.
  u64 bytes() const { return bytes_; }
  /// Serialised bytes of the largest single run — the writer's bound on
  /// in-memory record storage (one batch at a time).
  usize peak_run_bytes() const { return peak_run_bytes_; }

 private:
  std::string path_;
  std::ofstream out_;
  usize runs_ = 0;
  u64 records_ = 0;
  u64 bytes_ = 0;
  usize peak_run_bytes_ = 0;
};

/// K-way merge every sorted run in `paths` (spill files produced by
/// record_spill_writer) into canonical order, dropping duplicate keys the
/// way sort_and_dedup does (chunk-overlap re-scans and multi-queue overlap
/// produce byte-identical duplicates), and hand each surviving record to
/// `sink`. Returns the number of records emitted. Each run streams through
/// its own read window of at most 8 KiB, refilled by one positioned read,
/// so host memory is O(#runs × window). Throws spill_error when a file
/// cannot be opened or holds a truncated run header or run. The header scan
/// catches a file cut short before the sink sees any record.
u64 merge_spill_runs(const std::vector<std::string>& paths,
                     const std::function<void(ot_record&&)>& sink);

}  // namespace cof
