// The device-pipeline interface both host programs implement. The engine
// (engine.hpp) drives either implementation through this interface; the
// implementations differ only in the host programming model — which is
// exactly the variable the paper studies:
//
//   host_ocl.cpp  — the original-style OpenCL host program (explicit
//                   platform/context/queue/program/kernel/buffer objects,
//                   clSetKernelArg, clEnqueueNDRangeKernel, manual release)
//   host_sycl.cpp — the migrated SYCL host program (selector, queue,
//                   buffers, accessors, lambda kernels, implicit cleanup)
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/kernels.hpp"
#include "core/kernels_swar.hpp"
#include "core/pattern.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "profile/profiler.hpp"

namespace cof {

/// Recoverable entry-buffer overflow: a chunk produced more finder hits or
/// comparer entries than the max_entries-capped allocation could hold. The
/// kernels keep advancing the append counter past the capacity (only stores
/// are clamped), so `required` round-trips the TRUE demand — the engine
/// sizes its retry from it (core/recovery.hpp), and the message reports it.
class entry_overflow_error : public std::runtime_error {
 public:
  entry_overflow_error(std::string kernel, util::u64 required, util::u64 capacity)
      : std::runtime_error(kernel + " entry-buffer overflow: " +
                           std::to_string(required) +
                           " entries exceed the allocated capacity " +
                           std::to_string(capacity) +
                           " (raise max_entries or use worst-case sizing)"),
        kernel_(std::move(kernel)),
        required_(required),
        capacity_(capacity) {}

  const std::string& kernel() const { return kernel_; }
  util::u64 required() const { return required_; }
  util::u64 capacity() const { return capacity_; }

 private:
  std::string kernel_;
  util::u64 required_;
  util::u64 capacity_;
};

struct pipeline_options {
  comparer_variant variant = comparer_variant::opt6;
  /// Work-group size for kernel launches. 0 = let the runtime choose (the
  /// OpenCL application's behaviour in the paper); the SYCL application
  /// pins 256.
  usize wg_size = 256;
  /// Run instrumented kernels and record event counts into `profiler`.
  bool counting = false;
  prof::profiler* profiler = nullptr;
  /// Cap on device entry-output allocations (loci, comparer entries).
  /// 0 = size worst-case (every position a hit; 2*loci entries per query),
  /// which can never overflow. A non-zero cap shrinks the allocations; the
  /// kernels clamp appends to it and the host reports an overflow error
  /// (instead of out-of-bounds writes) when the count exceeds the cap.
  usize max_entries = 0;
};

/// Per-run accounting a pipeline accumulates (for the elapsed-time model).
struct pipeline_metrics {
  util::u64 kernel_nanos = 0;     // simulated-device kernel wall time
  util::u64 finder_launches = 0;
  util::u64 comparer_launches = 0;
  util::u64 h2d_bytes = 0;
  util::u64 d2h_bytes = 0;
  util::u64 total_loci = 0;       // finder hits across chunks
  util::u64 total_entries = 0;    // comparer entries across chunks/queries

  /// Field-wise sum: folds another pipeline's (or a retired one's) lifetime
  /// accounting into a running total.
  pipeline_metrics& operator+=(const pipeline_metrics& o) {
    kernel_nanos += o.kernel_nanos;
    finder_launches += o.finder_launches;
    comparer_launches += o.comparer_launches;
    h2d_bytes += o.h2d_bytes;
    d2h_bytes += o.d2h_bytes;
    total_loci += o.total_loci;
    total_entries += o.total_entries;
    return *this;
  }

  /// Field-wise difference: the accounting accrued since the snapshot `o`
  /// (a long-lived pipeline's per-call delta).
  friend pipeline_metrics operator-(pipeline_metrics a, const pipeline_metrics& o) {
    a.kernel_nanos -= o.kernel_nanos;
    a.finder_launches -= o.finder_launches;
    a.comparer_launches -= o.comparer_launches;
    a.h2d_bytes -= o.h2d_bytes;
    a.d2h_bytes -= o.d2h_bytes;
    a.total_loci -= o.total_loci;
    a.total_entries -= o.total_entries;
    return a;
  }
};

/// Completion handle for async pipeline operations. Both simulated runtimes
/// execute kernels and copies synchronously inside the submitting call, so
/// wait() is structurally where a real backend would block — callers wait
/// on a batched launch before fetching its entries, as a production queue
/// would require, and the pipe.event fault site models a completion failure
/// surfacing there.
class pipe_event {
 public:
  void wait() const { fault::inject_point(fault::site::pipe_event); }
};

/// A genome chunk as a pipeline uploads it: the decoded text and, when its
/// producer packed it, the 2-bit words (swar_pack(text)). Pipelines whose
/// kernels read packed words (comparer_variant_packs_words) upload `words`;
/// the others ignore them.
struct packed_chunk {
  std::string_view text;
  const swar_ref* words = nullptr;
};

class device_pipeline {
 public:
  struct entries {
    std::vector<u16> mm;
    std::vector<char> dir;
    std::vector<u32> loci;
    std::vector<u16> qidx;  // query index per entry (batched path)
    usize size() const { return mm.size(); }
  };

  explicit device_pipeline(const pipeline_options& opt)
      : packs_words_(comparer_variant_packs_words(opt.variant)) {}
  virtual ~device_pipeline() = default;

  virtual const char* name() const = 0;

  /// True when this pipeline's kernels read the chunk as packed words.
  bool packs_words() const { return packs_words_; }

  /// Upload a genome chunk to the device. A packed-word pipeline needs
  /// ch.words (producers pack each chunk once, where they decode it).
  virtual void load_chunk(const packed_chunk& ch) = 0;

  /// Text-only upload for callers that hold no words: packs the chunk here
  /// when this pipeline needs them.
  void load_chunk(std::string_view seq) {
    swar_ref words;
    load_chunk(with_words(seq, words));
  }

  /// Run the finder over the loaded chunk; hits stay device-resident.
  /// Returns the hit count.
  virtual u32 run_finder(const device_pattern& pat) = 0;

  /// Copy the finder's hit positions back to the host.
  virtual std::vector<u32> read_loci() = 0;

  /// Copy the finder's per-hit strand flags back to the host (0 = both
  /// strands matched the PAM, 1 = forward only, 2 = reverse only). Length
  /// equals the last finder run's hit count. The index build phase persists
  /// these so warm queries can skip the finder entirely.
  virtual std::vector<char> read_flags() = 0;

  /// Warm-path upload: load a chunk together with PREBUILT finder output
  /// (loci + strand flags from a genome_index) so subsequent comparer
  /// launches run without a finder launch. Implementations upload the chunk
  /// (text or words, as load_chunk) and write loci/flags straight into the
  /// device buffers the finder would have filled. Throws
  /// entry_overflow_error when the pipeline's max_entries cap cannot hold
  /// the prebuilt hits.
  virtual void load_indexed_chunk(const packed_chunk& ch, u32 plen,
                                  const std::vector<u32>& loci,
                                  const std::vector<char>& flags) = 0;

  /// Text-only warm-path upload: packs the chunk here when needed.
  void load_indexed_chunk(std::string_view seq, u32 plen,
                          const std::vector<u32>& loci,
                          const std::vector<char>& flags) {
    swar_ref words;
    load_indexed_chunk(with_words(seq, words), plen, loci, flags);
  }

  /// Device bytes load_indexed_chunk uploads and keeps resident for a chunk
  /// of `bases` bases with `hits` prebuilt finder hits: what a residency
  /// budget charges for holding it.
  virtual usize indexed_chunk_bytes(usize bases, usize hits) const = 0;

  /// Run the comparer for one query against the finder's hits.
  virtual entries run_comparer(const device_pattern& query, u16 threshold) = 0;

  /// Every query's entries for the loaded chunk, each tagged with its query
  /// index. Batched: ONE multi-query launch (launch_comparer_batch, then
  /// fetch_entries). Otherwise one run_comparer launch per query, as in the
  /// paper / upstream — what the per-query `comparer/<variant>` kernel
  /// profiles measure.
  entries run_comparers(const std::vector<device_pattern>& queries,
                        const std::vector<u16>& thresholds, bool batched) {
    if (batched) {
      launch_comparer_batch(queries, thresholds).wait();
      return fetch_entries();
    }
    entries all;
    for (usize q = 0; q < queries.size(); ++q) {
      entries e = run_comparer(queries[q], thresholds[q]);
      all.mm.insert(all.mm.end(), e.mm.begin(), e.mm.end());
      all.dir.insert(all.dir.end(), e.dir.begin(), e.dir.end());
      all.loci.insert(all.loci.end(), e.loci.begin(), e.loci.end());
      all.qidx.insert(all.qidx.end(), e.size(), static_cast<u16>(q));
    }
    return all;
  }

  /// Split batched comparer: launch_comparer_batch starts the single
  /// multi-query launch (finder loci/flags are consumed device-side, no
  /// host round trip); fetch_entries later downloads the entry list.
  /// Pipelines with a batched kernel override both; the defaults stage the
  /// per-query launches so every facade supports the protocol.
  virtual pipe_event launch_comparer_batch(const std::vector<device_pattern>& queries,
                                           const std::vector<u16>& thresholds) {
    obs::span sp("comparer.batch", "device");
    sp.arg("queries", static_cast<double>(queries.size()));
    fault::inject_point(fault::site::dev_launch);
    staged_ = run_comparers(queries, thresholds, /*batched=*/false);
    staged_valid_ = true;
    return {};
  }

  /// Download the entries staged by the last launch_comparer_batch.
  virtual entries fetch_entries() {
    obs::span sp("fetch", "device");
    COF_CHECK(staged_valid_);
    staged_valid_ = false;
    sp.arg("entries", static_cast<double>(staged_.size()));
    return std::move(staged_);
  }

  virtual const pipeline_metrics& metrics() const = 0;

 protected:
  /// The words a packed-word pipeline uploads for `ch`; checks that the
  /// producer supplied them for exactly this text.
  const swar_ref& words_of(const packed_chunk& ch) const {
    COF_CHECK_MSG(ch.words != nullptr && ch.words->bases == ch.text.size(),
                  "packed-word pipeline loaded a chunk without its words");
    return *ch.words;
  }

  /// Bytes of a chunk's prebuilt hits (u32 locus + char flag each).
  static usize hit_bytes(usize hits) { return hits * (sizeof(u32) + sizeof(char)); }

  entries staged_;            // default launch/fetch staging
  bool staged_valid_ = false;

 private:
  /// `seq` as load_chunk takes it, packed into `storage` when this pipeline
  /// reads words.
  packed_chunk with_words(std::string_view seq, swar_ref& storage) const {
    if (!packs_words_) return {seq, nullptr};
    storage = swar_pack(seq);
    return {seq, &storage};
  }

  bool packs_words_ = false;
};

std::unique_ptr<device_pipeline> make_opencl_pipeline(const pipeline_options& opt);
std::unique_ptr<device_pipeline> make_sycl_pipeline(const pipeline_options& opt);
/// The USM flavour of the SYCL host program (paper §III.A's alternative).
std::unique_ptr<device_pipeline> make_sycl_usm_pipeline(const pipeline_options& opt);
/// SYCL host program over 2-bit packed chunks (the upstream memory
/// optimisation, §V [21]). base..opt5 all run its optimised-style nibble
/// kernels; opt6 runs the packed-word finder and comparer over the
/// producer's words instead. Reference ambiguity codes collapse to 'N'.
std::unique_ptr<device_pipeline> make_sycl_twobit_pipeline(const pipeline_options& opt);

/// The host programming steps each implementation performs (Table I).
std::vector<std::string> opencl_programming_steps();
std::vector<std::string> sycl_programming_steps();

/// The OpenCL C source the OpenCL host builds (finder + comparer variants).
const char* opencl_kernel_source();

namespace detail {

/// Shared post-download capacity check for every facade: the kernels drop
/// appends past the capacity but keep counting, so a count above the
/// allocation means the cap was too small for this chunk — `count` is the
/// true demand and rides the thrown error into the retry sizing. The
/// entry.clamp fault site forces this same path (with the observed count as
/// demand) so recovery is exercisable without crafting a saturating genome.
inline void check_entry_capacity(const char* kernel, u32 count, usize cap) {
  if (count > cap || fault::should_fail(fault::site::entry_clamp)) {
    throw entry_overflow_error(kernel, count, cap);
  }
}

/// RAII helper: when counting, isolates prof::counters around one launch and
/// records the snapshot (plus wall nanos) into the profiler under `kernel`.
class kernel_record_scope {
 public:
  kernel_record_scope(const pipeline_options& opt, std::string kernel)
      : opt_(opt), kernel_(std::move(kernel)) {
    if (opt_.counting) prof::counters::reset();
  }
  void finish(util::u64 wall_nanos) {
    if (finished_) return;
    finished_ = true;
    if (opt_.counting && opt_.profiler != nullptr) {
      opt_.profiler->record(kernel_, prof::counters::snapshot(), wall_nanos);
    } else if (opt_.profiler != nullptr) {
      opt_.profiler->record(kernel_, {}, wall_nanos);
    }
  }

 private:
  const pipeline_options& opt_;
  std::string kernel_;
  bool finished_ = false;
};

}  // namespace detail
}  // namespace cof
