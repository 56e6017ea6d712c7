// device_pipeline's public calls: the engine policy every facade shares
// (see the contract in pipeline.hpp).
#include "core/pipeline.hpp"

#include "obs/trace.hpp"

namespace cof {

namespace {

/// Post-download capacity check: the kernels drop appends past the capacity
/// but keep counting, so a count above the allocation means the cap was too
/// small for this chunk — `count` is the true demand and rides the thrown
/// error into the retry sizing. The entry.clamp fault site forces this same
/// path (with the observed count as demand) so recovery is exercisable
/// without crafting a saturating genome.
void check_entry_capacity(const char* kernel, u32 count, usize cap) {
  if (count > cap || fault::should_fail(fault::site::entry_clamp)) {
    throw entry_overflow_error(kernel, count, cap);
  }
}

/// RAII helper: when counting, isolates prof::counters around one launch and
/// records the snapshot (plus wall nanos) into the profiler under `kernel`.
class kernel_record_scope {
 public:
  kernel_record_scope(const pipeline_options& opt, const std::string& kernel)
      : opt_(opt), kernel_(kernel) {
    if (opt_.counting) prof::counters::reset();
  }
  void finish(util::u64 wall_nanos) {
    if (opt_.counting && opt_.profiler != nullptr) {
      opt_.profiler->record(kernel_, prof::counters::snapshot(), wall_nanos);
    } else if (opt_.profiler != nullptr) {
      opt_.profiler->record(kernel_, {}, wall_nanos);
    }
  }

 private:
  const pipeline_options& opt_;
  const std::string& kernel_;
};

// Bytes one downloaded entry carries: mm + dir + locus, plus the query index
// of a batched launch.
constexpr usize kEntryBytes = sizeof(u16) + sizeof(char) + sizeof(u32);
constexpr usize kBatchEntryBytes = kEntryBytes + sizeof(u16);

}  // namespace

device_pipeline::device_pipeline(const pipeline_options& opt, const char* name,
                                 kernel_tags tags)
    : opt_(opt),
      name_(name),
      tags_(std::move(tags)),
      packs_words_(comparer_variant_packs_words(opt.variant)) {}

template <class Launch>
device_pipeline::launch_stats device_pipeline::launch(const std::string& tag,
                                                      util::u64& launches, Launch&& go) {
  kernel_record_scope rec(opt_, tag);
  metrics_.h2d_bytes += sizeof(u32);  // the append counter the hook zeroes
  const launch_stats s = go();
  metrics_.kernel_nanos += s.nanos;
  ++launches;
  rec.finish(s.nanos);
  return s;
}

void device_pipeline::upload_chunk(const packed_chunk& ch, usize hit_cap,
                                   std::span<const u32> loci,
                                   std::span<const char> flags) {
  obs::span sp("h2d.chunk", "device");
  sp.arg("bytes", static_cast<double>(ch.text.size()));
  fault::inject_point(fault::site::dev_alloc);
  chunk_len_ = ch.text.size();
  loci_cap_ = hit_cap;
  locicnt_ = 0;
  upload(ch, hit_cap, loci, flags);
  metrics_.h2d_bytes += chunk_bytes(chunk_len_);
}

void device_pipeline::load_chunk(const packed_chunk& ch) {
  upload_chunk(ch, cap_entries(ch.text.size()), {}, {});
}

u32 device_pipeline::run_finder(const device_pattern& pat) {
  obs::span sp("finder", "device");
  fault::inject_point(fault::site::dev_launch);
  plen_ = pat.plen;
  locicnt_ = 0;
  if (chunk_len_ >= pat.plen) {
    const u32 chrsize = static_cast<u32>(chunk_len_ - pat.plen + 1);
    // A warm chunk's arrays hold only its prebuilt hits.
    if (loci_cap_ < cap_entries(chunk_len_)) {
      loci_cap_ = cap_entries(chunk_len_);
      alloc_hits(loci_cap_);
    }
    const launch_stats s = launch(tags_.finder, metrics_.finder_launches, [&] {
      return launch_finder(pat, chrsize, loci_cap_);
    });
    metrics_.d2h_bytes += sizeof(u32);
    check_entry_capacity("finder", s.count, loci_cap_);
    locicnt_ = s.count;
    metrics_.total_loci += locicnt_;
  }
  sp.arg("hits", static_cast<double>(locicnt_));
  return locicnt_;
}

std::vector<u32> device_pipeline::read_loci() {
  std::vector<u32> out(locicnt_);
  if (locicnt_ != 0) {
    read_hits(locicnt_, out.data(), nullptr);
    metrics_.d2h_bytes += locicnt_ * sizeof(u32);
  }
  return out;
}

std::vector<char> device_pipeline::read_flags() {
  std::vector<char> out(locicnt_);
  if (locicnt_ != 0) {
    read_hits(locicnt_, nullptr, out.data());
    metrics_.d2h_bytes += locicnt_;
  }
  return out;
}

void device_pipeline::load_indexed_chunk(const packed_chunk& ch, u32 plen,
                                         const std::vector<u32>& loci,
                                         const std::vector<char>& flags) {
  obs::span sp("h2d.index_chunk", "device");
  sp.arg("hits", static_cast<double>(loci.size()));
  COF_CHECK_MSG(flags.size() == loci.size(), "one strand flag per prebuilt locus");
  const u32 n = static_cast<u32>(loci.size());
  upload_chunk(ch, n, loci, flags);
  check_entry_capacity("finder", n, cap_entries(chunk_len_));
  metrics_.h2d_bytes += hit_bytes(n);
  locicnt_ = n;
  plen_ = plen;
  metrics_.total_loci += n;
}

void device_pipeline::stage_query(const device_pattern& query, u16 threshold, u16 qidx) {
  obs::span sp("comparer", "device");
  COF_CHECK_MSG(query.plen == plen_, "query length != pattern length");
  // fw + rc per locus worst case, shrunk by the max_entries cap.
  const usize cap = cap_entries(static_cast<usize>(locicnt_) * 2);
  entries e;
  const launch_stats s = launch(tags_.comparer, metrics_.comparer_launches, [&] {
    return launch_comparer(query, threshold, locicnt_, cap, e);
  });
  metrics_.d2h_bytes += sizeof(u32);
  check_entry_capacity("comparer", s.count, cap);
  metrics_.d2h_bytes += s.count * kEntryBytes;
  metrics_.total_entries += s.count;
  staged_.mm.insert(staged_.mm.end(), e.mm.begin(), e.mm.end());
  staged_.dir.insert(staged_.dir.end(), e.dir.begin(), e.dir.end());
  staged_.loci.insert(staged_.loci.end(), e.loci.begin(), e.loci.end());
  staged_.qidx.insert(staged_.qidx.end(), e.size(), qidx);
}

device_pipeline::entries device_pipeline::run_comparers(
    const std::vector<device_pattern>& queries, const std::vector<u16>& thresholds) {
  launch_comparer_batch(queries, thresholds).wait();
  return fetch_entries();
}

device_pipeline::query_batch device_pipeline::pack(
    const std::vector<device_pattern>& queries, const std::vector<u16>& thresholds) const {
  query_batch b;
  b.queries = static_cast<u32>(queries.size());
  b.plen = queries.front().plen;
  b.swar_words = queries.front().swar_words;
  b.thresholds = thresholds.data();
  COF_CHECK_MSG(b.plen == plen_, "query length != pattern length");
  for (const auto& q : queries) {
    COF_CHECK_MSG(q.plen == b.plen, "batched queries must share one length");
    b.swar.insert(b.swar.end(), q.swar.begin(), q.swar.end());
  }
  return b;
}

pipe_event device_pipeline::launch_comparer_batch(const std::vector<device_pattern>& queries,
                                                  const std::vector<u16>& thresholds) {
  obs::span sp("comparer.batch", "device");
  sp.arg("queries", static_cast<double>(queries.size()));
  fault::inject_point(fault::site::dev_launch);
  COF_CHECK(queries.size() == thresholds.size());
  batch_pending_ = true;
  batch_cap_ = 0;
  staged_ = {};
  if (locicnt_ == 0 || queries.empty()) return {};  // fetch yields empty
  if (!packs_words_) {
    // base..opt4: the paper's loop, one launch per guide.
    for (usize q = 0; q < queries.size(); ++q) {
      stage_query(queries[q], thresholds[q], static_cast<u16>(q));
    }
    return {};
  }
  const query_batch b = pack(queries, thresholds);
  const usize cap = cap_entries(static_cast<usize>(locicnt_) * 2 * b.queries);
  launch(tags_.comparer, metrics_.comparer_launches,
         [&] { return launch_stats{0, launch_batch(b, locicnt_, cap)}; });
  batch_cap_ = cap;
  return {};
}

device_pipeline::entries device_pipeline::fetch_entries() {
  obs::span sp("fetch", "device");
  COF_CHECK_MSG(batch_pending_, "fetch_entries without launch_comparer_batch");
  batch_pending_ = false;
  entries out = std::move(staged_);
  staged_ = {};
  if (batch_cap_ != 0) {
    const usize cap = batch_cap_;
    batch_cap_ = 0;
    const u32 n = read_batch(cap, out);
    metrics_.d2h_bytes += sizeof(u32);
    check_entry_capacity("comparer/batch", n, cap);
    metrics_.d2h_bytes += n * kBatchEntryBytes;
    metrics_.total_entries += n;
  }
  sp.arg("entries", static_cast<double>(out.size()));
  return out;
}

util::u64 device_pipeline::launch_batch(const query_batch&, u32, usize) {
  util::die("launch_batch on a pipeline without opt6's comparer");
}

u32 device_pipeline::read_batch(usize, entries&) {
  util::die("read_batch on a pipeline without opt6's comparer");
}

}  // namespace cof
