// The device-pipeline contract. The engine (engine.hpp) drives every facade
// through device_pipeline's public calls, none of which is virtual: the base
// class owns the engine policy, and each facade overrides only the protected
// hooks, written in its own host programming model — which is exactly the
// variable the paper studies:
//
//   host_ocl.cpp         — the original-style OpenCL host program (explicit
//                          platform/context/queue/program/kernel/buffer
//                          objects, clSetKernelArg, clEnqueueNDRangeKernel,
//                          manual release)
//   host_sycl.cpp        — the migrated SYCL host program (selector, queue,
//                          buffers, accessors, lambda kernels, implicit
//                          cleanup)
//   host_sycl_usm.cpp    — the same with USM pointers (malloc_device, memcpy)
//   host_sycl_twobit.cpp — SYCL over 2-bit packed chunks: nibble kernels for
//                          base..opt4; under opt6 the buffer-SYCL program
//                          under this facade's name
//
// Under opt6 every facade uploads the same bytes: the chunk's 2-bit words
// and ambiguity flags (kernels_swar.hpp), never its chars.
//
// The base owns:
//   * the chunk and candidate state: chunk length, hit capacity, hit count
//     and pattern length;
//   * the choice of comparer, which follows the variant: base..opt4 run the
//     paper's loop, one per-query launch per guide; opt6 runs ONE batched
//     packed-word launch for every guide (a single guide is a batch of one);
//   * entry sizing (cap_entries): the finder's worst case is one hit per
//     position, a per-query comparer's two entries per hit, a batched one's
//     two per hit and query, each shrunk to pipeline_options::max_entries
//     when set; a warm chunk's hit arrays hold exactly its prebuilt hits and
//     run_finder regrows them to the finder's size;
//   * the argument checks (query length, one length per batch) and the
//     entry-capacity checks that throw entry_overflow_error;
//   * packing a batch's queries into one query_batch;
//   * the profiler scope around every launch;
//   * the `h2d.chunk`, `h2d.index_chunk`, `finder`, `comparer`,
//     `comparer.batch` and `fetch` spans, and the `dev.alloc` (upload) and
//     `dev.launch` (finder, comparer batch) fault points;
//   * every pipeline_metrics field except the h2d bytes of the pattern and
//     query constants a facade chooses to upload, which it reports through
//     count_h2d.
//
// A facade's hooks:
//   * upload: put the chunk on the device (chars, words or nibbles), with
//     hit arrays for the capacity given, and write the prebuilt candidates
//     into them when there are any;
//   * alloc_hits: (re)allocate the hit arrays; read_hits: copy hits back;
//   * launch_finder: one launch;
//   * launch_comparer: one guide's per-query comparer (base..opt4);
//   * launch_batch, read_batch: opt6's multi-query comparer, launched and
//     read back later. The 2-bit facade's nibble pipeline (base..opt4 only)
//     has none;
//   * chunk_bytes: the device bytes upload puts there for a chunk.
//
// Counting rule: a launch hook zeroes the kernel's append counter before it
// launches and reads it back after (the base charges both 4-byte copies),
// and returns the count and the kernel's wall nanos. The base counts a
// launch whether or not its count overflows the capacity.
//
// Release rule: a launch hook downloads entries only when the count fits the
// capacity it was given, and releases what it allocated for the launch
// before it returns, so the base's capacity check can throw without leaking.
// A batched launch's outputs stay on the device until read_batch, which
// releases them the same way.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/kernels.hpp"
#include "core/kernels_swar.hpp"
#include "core/pattern.hpp"
#include "fault/fault.hpp"
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
/// kernels read packed words (comparer_variant_packs_words) upload only
/// `words`; the others ignore them.
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
    std::vector<u16> qidx;  // query index per entry
    usize size() const { return mm.size(); }
    /// Size mm, dir and loci for `n` downloaded entries.
    void resize(usize n) {
      mm.resize(n);
      dir.resize(n);
      loci.resize(n);
    }
  };

  virtual ~device_pipeline() = default;
  device_pipeline(const device_pipeline&) = delete;
  device_pipeline& operator=(const device_pipeline&) = delete;

  /// Profiler names of a facade's launches.
  struct kernel_tags {
    std::string finder{};
    std::string comparer{};  // the variant's one comparer
  };

  const char* name() const { return name_; }

  /// True when this pipeline's kernels read the chunk as packed words.
  bool packs_words() const { return packs_words_; }

  /// Upload a genome chunk to the device. A packed-word pipeline needs
  /// ch.words (producers pack each chunk once, where they decode it).
  void load_chunk(const packed_chunk& ch);

  /// Text-only upload for callers that hold no words: packs the chunk here
  /// when this pipeline needs them.
  void load_chunk(std::string_view seq) {
    swar_ref words;
    load_chunk(with_words(seq, words));
  }

  /// Run the finder over the loaded chunk; hits stay device-resident.
  /// Returns the hit count.
  u32 run_finder(const device_pattern& pat);

  /// Copy the finder's hit positions back to the host.
  std::vector<u32> read_loci();

  /// Copy the finder's per-hit strand flags back to the host (0 = both
  /// strands matched the PAM, 1 = forward only, 2 = reverse only). Length
  /// equals the last finder run's hit count. The index build phase persists
  /// these so warm queries can skip the finder entirely.
  std::vector<char> read_flags();

  /// Warm-path upload: load a chunk together with PREBUILT finder output
  /// (loci + strand flags from a genome_index) so subsequent comparer
  /// launches run without a finder launch. The hit arrays hold exactly the
  /// prebuilt hits. Throws entry_overflow_error when the pipeline's
  /// max_entries cap cannot hold them.
  void load_indexed_chunk(const packed_chunk& ch, u32 plen, const std::vector<u32>& loci,
                          const std::vector<char>& flags);

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
  usize indexed_chunk_bytes(usize bases, usize hits) const {
    return chunk_bytes(bases) + hit_bytes(hits);
  }

  /// Every query's entries for the loaded chunk, each tagged with its query
  /// index: launch_comparer_batch, then fetch_entries.
  entries run_comparers(const std::vector<device_pattern>& queries,
                        const std::vector<u16>& thresholds);

  /// Split comparer: launch_comparer_batch starts the variant's comparer
  /// over every query (finder loci/flags are consumed device-side, no host
  /// round trip); fetch_entries later downloads the entry list. Under opt6
  /// that is ONE multi-query launch whose outputs stay on the device until
  /// the fetch; under base..opt4 the per-query launches run here, one per
  /// guide as in the paper / upstream, and fetch_entries returns their
  /// staged entries.
  pipe_event launch_comparer_batch(const std::vector<device_pattern>& queries,
                                   const std::vector<u16>& thresholds);

  /// Download the entries of the last launch_comparer_batch.
  entries fetch_entries();

  const pipeline_metrics& metrics() const { return metrics_; }

 protected:
  /// A finished launch: the kernel's append count (its true demand, past
  /// any capacity) and its wall time.
  struct launch_stats {
    u32 count = 0;
    util::u64 nanos = 0;
  };

  /// A batch's queries, concatenated for one multi-query launch: their
  /// SWAR deny masks.
  struct query_batch {
    u32 queries = 0;
    u32 plen = 0;
    u32 swar_words = 0;
    const u16* thresholds = nullptr;
    std::vector<util::u64> swar{};
  };

  device_pipeline(const pipeline_options& opt, const char* name, kernel_tags tags);

  /// "comparer/<variant>": the variant's comparer's profiler name.
  static std::string comparer_tag(comparer_variant v) {
    return std::string("comparer/") + comparer_variant_name(v);
  }

  /// This facade's launch names, as its constructor gave them.
  const kernel_tags& tags() const { return tags_; }

  // --- Hooks: the host programming model. ---

  /// Device bytes upload puts on the device for a chunk of `bases` bases.
  virtual usize chunk_bytes(usize bases) const = 0;

  /// Upload `ch` (replacing the previous chunk) with hit arrays for
  /// `hit_cap` hits, and write `loci`/`flags` into them when non-empty.
  virtual void upload(const packed_chunk& ch, usize hit_cap, std::span<const u32> loci,
                      std::span<const char> flags) = 0;

  /// Replace the hit arrays with ones for `cap` hits.
  virtual void alloc_hits(usize cap) = 0;

  /// Copy the first `n` hits back into `loci` and/or `flags` (either may be
  /// null).
  virtual void read_hits(u32 n, u32* loci, char* flags) = 0;

  /// Launch the finder over `chrsize` start positions into hit arrays of
  /// `cap` hits.
  virtual launch_stats launch_finder(const device_pattern& pat, u32 chrsize, usize cap) = 0;

  /// Launch one query's per-query comparer (base..opt4) over the first
  /// `loci` hits with outputs for `cap` entries; download them into `out`
  /// when the count fits.
  virtual launch_stats launch_comparer(const device_pattern& query, u16 threshold,
                                       u32 loci, usize cap, entries& out) = 0;

  /// Launch opt6's multi-query comparer over the first `loci` hits with
  /// outputs for `cap` entries, left on the device for read_batch; returns
  /// the kernel's wall nanos. The 2-bit facade's nibble pipeline, which
  /// never runs opt6, keeps the defaults; they are never called.
  virtual util::u64 launch_batch(const query_batch& b, u32 loci, usize cap);

  /// Read back the last launch_batch: its append count, downloading the
  /// entries (with their query indices) into `out` when the count fits
  /// `cap`, and releasing its outputs.
  virtual u32 read_batch(usize cap, entries& out);

  // --- Helpers for the hooks. ---

  /// Charge the h2d bytes of pattern or query constants a launch uploads.
  void count_h2d(usize bytes) { metrics_.h2d_bytes += bytes; }

  /// The words a packed-word pipeline uploads for `ch`; checks that the
  /// producer supplied them for exactly this text.
  const swar_ref& words_of(const packed_chunk& ch) const {
    COF_CHECK_MSG(ch.words != nullptr && ch.words->bases == ch.text.size(),
                  "packed-word pipeline loaded a chunk without its words");
    return *ch.words;
  }

  /// The options, as the facade adjusted them in its constructor.
  pipeline_options opt_;

 private:
  /// Bytes of a chunk's prebuilt hits (u32 locus + char flag each).
  static usize hit_bytes(usize hits) { return hits * (sizeof(u32) + sizeof(char)); }

  /// `seq` as load_chunk takes it, packed into `storage` when this pipeline
  /// reads words.
  packed_chunk with_words(std::string_view seq, swar_ref& storage) const {
    if (!packs_words_) return {seq, nullptr};
    storage = swar_pack(seq);
    return {seq, &storage};
  }

  /// Entry-allocation size for a worst-case demand, honouring the
  /// max_entries cap (0 = worst case, which cannot overflow).
  usize cap_entries(usize worst) const {
    return opt_.max_entries != 0 ? std::min(worst, opt_.max_entries) : worst;
  }

  void upload_chunk(const packed_chunk& ch, usize hit_cap, std::span<const u32> loci,
                    std::span<const char> flags);
  /// One guide's per-query launch (base..opt4), appended to staged_ with its
  /// query index.
  void stage_query(const device_pattern& query, u16 threshold, u16 qidx);
  /// One launch under its profiler scope, with the launch's accounting.
  template <class Launch>
  launch_stats launch(const std::string& tag, util::u64& launches, Launch&& go);
  query_batch pack(const std::vector<device_pattern>& queries,
                   const std::vector<u16>& thresholds) const;

  const char* name_;
  kernel_tags tags_;
  bool packs_words_ = false;
  pipeline_metrics metrics_;
  usize chunk_len_ = 0;
  usize loci_cap_ = 0;  // hit-array capacity
  u32 locicnt_ = 0;     // hits of the last finder run or warm upload
  u32 plen_ = 0;        // their pattern length
  // The last launch_comparer_batch: outputs of batch_cap_ entries on the
  // device (0 = nothing launched), or the staged per-query entries.
  usize batch_cap_ = 0;
  entries staged_;
  bool batch_pending_ = false;
};

std::unique_ptr<device_pipeline> make_opencl_pipeline(const pipeline_options& opt);
std::unique_ptr<device_pipeline> make_sycl_pipeline(const pipeline_options& opt);
/// The buffer-SYCL host program under another facade's name and launch
/// names: the 2-bit facade's opt6 path.
std::unique_ptr<device_pipeline> make_sycl_pipeline(const pipeline_options& opt,
                                                    const char* name,
                                                    device_pipeline::kernel_tags tags);
/// The USM flavour of the SYCL host program (paper §III.A's alternative).
std::unique_ptr<device_pipeline> make_sycl_usm_pipeline(const pipeline_options& opt);
/// SYCL host program over 2-bit packed chunks (the upstream memory
/// optimisation, §V [21]). base..opt4 all run its optimised-style nibble
/// kernels, which collapse every non-ACGT reference byte to 'N', one
/// per-query launch per guide. Under opt6 the chunk is already packed, so
/// it is the buffer-SYCL host program under the 2-bit facade's name and
/// launch names.
std::unique_ptr<device_pipeline> make_sycl_twobit_pipeline(const pipeline_options& opt);

/// The host programming steps each implementation performs (Table I).
std::vector<std::string> opencl_programming_steps();
std::vector<std::string> sycl_programming_steps();

/// The OpenCL C source the OpenCL host builds (finder + comparer variants).
const char* opencl_kernel_source();

}  // namespace cof
