// The USM flavour of the SYCL host program — the pointer-based memory
// abstraction the paper's §III.A describes as the alternative to buffers
// ("allows for easier integration with existing C/C++ programs"; the
// paper's port started with buffers). Data management here is explicit:
// sycl::malloc_device + queue::memcpy + sycl::free, kernels consume raw
// device pointers; only shared local memory still goes through accessors.
#include <algorithm>

#include "core/kernels_swar.hpp"
#include "core/pipeline.hpp"
#include "syclsim/sycl.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace cof {

namespace {

class sycl_usm_pipeline final : public device_pipeline {
 public:
  explicit sycl_usm_pipeline(const pipeline_options& opt)
      : device_pipeline(opt), opt_(opt), q_(sycl::gpu_selector{}) {
    if (opt_.wg_size == 0) opt_.wg_size = 256;
  }

  ~sycl_usm_pipeline() override {
    release_batch();
    release_chunk();
  }

  const char* name() const override { return "sycl-usm"; }

  void load_chunk(const packed_chunk& ch) override {
    upload(ch, cap_entries(ch.text.size()));
  }

  u32 run_finder(const device_pattern& pat) override {
    obs::span sp("finder", "device");
    fault::inject_point(fault::site::dev_launch);
    const u32 hits = opt_.counting ? run_finder_impl<counting_mem>(pat)
                                   : run_finder_impl<direct_mem>(pat);
    sp.arg("hits", static_cast<double>(hits));
    return hits;
  }

  std::vector<u32> read_loci() override {
    std::vector<u32> out(locicnt_);
    if (locicnt_ != 0) {
      q_.memcpy(out.data(), loci_, locicnt_ * sizeof(u32));
      metrics_.d2h_bytes += locicnt_ * sizeof(u32);
    }
    return out;
  }

  std::vector<char> read_flags() override {
    std::vector<char> out(locicnt_);
    if (locicnt_ != 0) {
      q_.memcpy(out.data(), flag_, locicnt_);
      metrics_.d2h_bytes += locicnt_;
    }
    return out;
  }

  void load_indexed_chunk(const packed_chunk& ch, u32 plen,
                          const std::vector<u32>& loci,
                          const std::vector<char>& flags) override {
    obs::span sp("h2d.index_chunk", "device");
    sp.arg("hits", static_cast<double>(loci.size()));
    // A warm chunk never runs the finder: its hit arrays hold exactly the
    // prebuilt hits (run_finder regrows them if it ever does).
    upload(ch, loci.size());
    detail::check_entry_capacity("finder", static_cast<u32>(loci.size()),
                                 cap_entries(chunk_len_));
    const u32 n = static_cast<u32>(loci.size());
    if (n != 0) {
      q_.memcpy(loci_, loci.data(), n * sizeof(u32));
      q_.memcpy(flag_, flags.data(), n);
      metrics_.h2d_bytes += hit_bytes(n);
    }
    locicnt_ = n;
    plen_ = plen;
    metrics_.total_loci += n;
  }

  usize indexed_chunk_bytes(usize bases, usize hits) const override {
    return chunk_bytes(bases) + hit_bytes(hits);
  }

  entries run_comparer(const device_pattern& query, u16 threshold) override {
    obs::span sp("comparer", "device");
    return opt_.counting ? run_comparer_impl<counting_mem>(query, threshold)
                         : run_comparer_impl<direct_mem>(query, threshold);
  }

  pipe_event launch_comparer_batch(const std::vector<device_pattern>& queries,
                                   const std::vector<u16>& thresholds) override {
    obs::span sp("comparer.batch", "device");
    sp.arg("queries", static_cast<double>(queries.size()));
    fault::inject_point(fault::site::dev_launch);
    if (opt_.counting) {
      launch_batch_impl<counting_mem>(queries, thresholds);
    } else {
      launch_batch_impl<direct_mem>(queries, thresholds);
    }
    return {};
  }

  entries fetch_entries() override {
    obs::span sp("fetch", "device");
    entries out = fetch_staged();
    sp.arg("entries", static_cast<double>(out.size()));
    return out;
  }

  const pipeline_metrics& metrics() const override { return metrics_; }

 private:
  /// Upload the chunk (its chars, plus the words under opt6) and allocate
  /// hit arrays for `hit_cap` entries.
  void upload(const packed_chunk& ch, usize hit_cap) {
    obs::span sp("h2d.chunk", "device");
    sp.arg("bytes", static_cast<double>(ch.text.size()));
    fault::inject_point(fault::site::dev_alloc);
    release_chunk();
    chunk_len_ = ch.text.size();
    locicnt_ = 0;
    chr_ = sycl::malloc_device<char>(chunk_len_, q_);
    count_ = sycl::malloc_device<u32>(1, q_);
    q_.memcpy(chr_, ch.text.data(), chunk_len_);
    if (packs_words()) {
      // opt6: the producer's 2-bit words + ambiguity flags, device-resident
      // for the packed-word finder and comparer (the char chunk stays for
      // the comparer's ambiguous-base fallback).
      const swar_ref& words = words_of(ch);
      chr2_ = sycl::malloc_device<util::u64>(words.packed2.size(), q_);
      amb2_ = sycl::malloc_device<util::u64>(words.amb2.size(), q_);
      q_.memcpy(chr2_, words.packed2.data(), words.packed2.size() * sizeof(util::u64));
      q_.memcpy(amb2_, words.amb2.data(), words.amb2.size() * sizeof(util::u64));
    }
    alloc_hits(hit_cap);
    metrics_.h2d_bytes += chunk_bytes(chunk_len_);
  }

  /// Device-resident hit arrays for `cap` entries: the finder's worst case
  /// unless opt_.max_entries caps it, or a warm chunk's prebuilt hits.
  void alloc_hits(usize cap) {
    sycl::free(loci_, q_);
    sycl::free(flag_, q_);
    loci_cap_ = cap;
    loci_ = sycl::malloc_device<u32>(loci_cap_, q_);
    flag_ = sycl::malloc_device<char>(loci_cap_, q_);
  }

  void release_chunk() {
    sycl::free(chr_, q_);
    sycl::free(chr2_, q_);
    sycl::free(amb2_, q_);
    sycl::free(loci_, q_);
    sycl::free(flag_, q_);
    sycl::free(count_, q_);
    chr_ = nullptr;
    chr2_ = nullptr;
    amb2_ = nullptr;
    loci_ = nullptr;
    flag_ = nullptr;
    count_ = nullptr;
  }

  void zero_count(u32* ptr) {
    const u32 zero = 0;
    q_.memcpy(ptr, &zero, sizeof(u32));
    metrics_.h2d_bytes += sizeof(u32);
  }

  u32 read_count(const u32* ptr) {
    u32 n = 0;
    q_.memcpy(&n, ptr, sizeof(u32));
    metrics_.d2h_bytes += sizeof(u32);
    return n;
  }

  /// Entry-allocation size for a worst-case demand, honouring the
  /// max_entries cap (0 = worst case, which cannot overflow).
  usize cap_entries(usize worst) const {
    return opt_.max_entries != 0 ? std::min(worst, opt_.max_entries) : worst;
  }

  /// Bytes load_chunk uploads for a chunk of `bases`: the chars, plus the
  /// two word arrays under opt6.
  usize chunk_bytes(usize bases) const {
    return bases + (packs_words() ? swar_ref_bytes(bases) : 0);
  }

  template <class P>
  u32 run_finder_impl(const device_pattern& pat) {
    plen_ = pat.plen;
    if (chunk_len_ < pat.plen) {
      locicnt_ = 0;
      return 0;
    }
    const u32 chrsize = static_cast<u32>(chunk_len_ - pat.plen + 1);
    if (loci_cap_ < cap_entries(chunk_len_)) alloc_hits(cap_entries(chunk_len_));
    const usize lws = opt_.wg_size;
    // opt6's packed-word finder covers 32 start positions per work-item.
    const usize gws = util::round_up<usize>(
        packs_words() ? swar_finder_items(chrsize) : chrsize, lws);

    char* patd = sycl::malloc_device<char>(pat.device_chars(), q_);
    i32* idxd = sycl::malloc_device<i32>(pat.index.size(), q_);
    u16* maskd = sycl::malloc_device<u16>(pat.mask.size(), q_);
    q_.memcpy(idxd, pat.index_data(), pat.index.size() * sizeof(i32));
    metrics_.h2d_bytes += pat.index.size() * sizeof(i32);
    if (!packs_words()) {
      q_.memcpy(patd, pat.data(), pat.device_chars());
      metrics_.h2d_bytes += pat.device_chars();
    }
    const bool use_mask = comparer_variant_uses_mask(opt_.variant);
    if (use_mask) {
      q_.memcpy(maskd, pat.mask_data(), pat.mask.size() * sizeof(u16));
      metrics_.h2d_bytes += pat.mask.size() * sizeof(u16);
    }
    zero_count(count_);

    detail::kernel_record_scope rec(opt_, "finder");
    const char* chr = chr_;
    const util::u64* chr2 = chr2_;
    const util::u64* amb2 = amb2_;
    u32* loci = loci_;
    char* flag = flag_;
    u32* count = count_;
    const u32 plen = pat.plen;
    const u32 loci_cap = static_cast<u32>(loci_cap_);
    const sycl::nd_range<1> ndr{sycl::range<1>(gws), sycl::range<1>(lws)};
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("finder");
       if (packs_words()) {
         // No local memory, no barrier: reads the words and constants
         // straight from device memory.
         cgh.cof_hint_no_barrier();
         cgh.parallel_for(ndr, [=](sycl::nd_item<1> item) {
           finder_swar_args a;
           a.chr_packed2 = chr2;
           a.chr_amb2 = amb2;
           a.pat_mask = maskd;
           a.pat_index = idxd;
           a.chrsize = chrsize;
           a.plen = plen;
           a.loci = loci;
           a.flag = flag;
           a.entrycount = count;
           a.entry_capacity = loci_cap;
           finder_swar_kernel<P>(item, a);
         });
         return;
       }
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       sycl::local_accessor<char, 1> l_pat(sycl::range<1>(pat.device_chars()), cgh);
       sycl::local_accessor<i32, 1> l_idx(sycl::range<1>(pat.index.size()), cgh);
       sycl::local_accessor<u16, 1> l_mask(sycl::range<1>(pat.mask.size()), cgh);
       cgh.parallel_for(ndr, [=](sycl::nd_item<1> item) {
         finder_args a;
         a.chr = chr;
         a.pat = patd;
         a.pat_index = idxd;
         a.pat_mask = maskd;
         a.chrsize = chrsize;
         a.plen = plen;
         a.loci = loci;
         a.flag = flag;
         a.entrycount = count;
         a.entry_capacity = loci_cap;
         a.l_pat = l_pat.get_pointer();
         a.l_pat_index = l_idx.get_pointer();
         a.l_pat_mask = l_mask.get_pointer();
         if (use_mask) {
           finder_kernel_mask<P>(item, a);
         } else {
           finder_kernel<P>(item, a);
         }
       });
     }).wait();
    const auto stats = q_.cof_last_launch();
    metrics_.kernel_nanos += stats.wall_nanos;
    ++metrics_.finder_launches;
    rec.finish(stats.wall_nanos);

    sycl::free(patd, q_);
    sycl::free(idxd, q_);
    sycl::free(maskd, q_);
    locicnt_ = read_count(count_);
    detail::check_entry_capacity("finder", locicnt_, loci_cap_);
    metrics_.total_loci += locicnt_;
    return locicnt_;
  }

  template <class P>
  entries run_comparer_impl(const device_pattern& query, u16 threshold) {
    entries out;
    if (locicnt_ == 0) return out;
    COF_CHECK_MSG(query.plen == plen_, "query length != pattern length");
    if (opt_.variant == comparer_variant::opt6) {
      return run_comparer_swar<P>(query, threshold);
    }
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt_, lws);
    const usize cap = cap_entries(static_cast<usize>(locicnt_) * 2);

    char* compd = sycl::malloc_device<char>(query.device_chars(), q_);
    i32* cidxd = sycl::malloc_device<i32>(query.index.size(), q_);
    u16* cmaskd = sycl::malloc_device<u16>(query.mask.size(), q_);
    u16* mmd = sycl::malloc_device<u16>(cap, q_);
    char* dird = sycl::malloc_device<char>(cap, q_);
    u32* mlocid = sycl::malloc_device<u32>(cap, q_);
    u32* ccountd = sycl::malloc_device<u32>(1, q_);
    q_.memcpy(compd, query.data(), query.device_chars());
    q_.memcpy(cidxd, query.index_data(), query.index.size() * sizeof(i32));
    metrics_.h2d_bytes += query.device_chars() + query.index.size() * sizeof(i32);
    if (opt_.variant == comparer_variant::opt5) {
      q_.memcpy(cmaskd, query.mask_data(), query.mask.size() * sizeof(u16));
      metrics_.h2d_bytes += query.mask.size() * sizeof(u16);
    }
    zero_count(ccountd);

    const std::string tag =
        std::string("comparer/") + comparer_variant_name(opt_.variant);
    detail::kernel_record_scope rec(opt_, tag);
    const comparer_variant variant = opt_.variant;
    const u32 locicnt = locicnt_;
    const char* chr = chr_;
    const u32* loci = loci_;
    const char* flag = flag_;
    const u32 plen = query.plen;
    const u32 entry_cap = static_cast<u32>(cap);
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name(tag.c_str());
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       sycl::local_accessor<char, 1> l_comp(sycl::range<1>(query.device_chars()), cgh);
       sycl::local_accessor<i32, 1> l_cidx(sycl::range<1>(query.index.size()), cgh);
       sycl::local_accessor<u16, 1> l_cmask(sycl::range<1>(query.mask.size()), cgh);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          comparer_args a;
                          a.locicnts = locicnt;
                          a.chr = chr;
                          a.loci = loci;
                          a.flag = flag;
                          a.comp = compd;
                          a.comp_index = cidxd;
                          a.comp_mask = cmaskd;
                          a.plen = plen;
                          a.threshold = threshold;
                          a.mm_count = mmd;
                          a.direction = dird;
                          a.mm_loci = mlocid;
                          a.entrycount = ccountd;
                          a.entry_capacity = entry_cap;
                          a.l_comp = l_comp.get_pointer();
                          a.l_comp_index = l_cidx.get_pointer();
                          a.l_comp_mask = l_cmask.get_pointer();
                          comparer_dispatch<P>(variant, item, a);
                        });
     }).wait();
    const auto stats = q_.cof_last_launch();
    metrics_.kernel_nanos += stats.wall_nanos;
    ++metrics_.comparer_launches;
    rec.finish(stats.wall_nanos);

    const u32 n = read_count(ccountd);
    detail::check_entry_capacity("comparer", n, cap);
    out.mm.resize(n);
    out.dir.resize(n);
    out.loci.resize(n);
    if (n != 0) {
      q_.memcpy(out.mm.data(), mmd, n * sizeof(u16));
      q_.memcpy(out.dir.data(), dird, n);
      q_.memcpy(out.loci.data(), mlocid, n * sizeof(u32));
      metrics_.d2h_bytes += n * (sizeof(u16) + 1 + sizeof(u32));
    }
    metrics_.total_entries += n;
    sycl::free(compd, q_);
    sycl::free(cidxd, q_);
    sycl::free(cmaskd, q_);
    sycl::free(mmd, q_);
    sycl::free(dird, q_);
    sycl::free(mlocid, q_);
    sycl::free(ccountd, q_);
    return out;
  }

  /// opt6: SWAR comparer over the chunk's device-resident words, raw-char
  /// LUT fallback for ambiguous bases. Non-counting runs install the
  /// lane-batched row body (AVX2 when the host has it, scalar otherwise).
  template <class P>
  entries run_comparer_swar(const device_pattern& query, u16 threshold) {
    entries out;
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt_, lws);
    const usize cap = cap_entries(static_cast<usize>(locicnt_) * 2);

    util::u64* csward = sycl::malloc_device<util::u64>(query.swar.size(), q_);
    u16* cmaskd = sycl::malloc_device<u16>(query.mask.size(), q_);
    u16* mmd = sycl::malloc_device<u16>(cap, q_);
    char* dird = sycl::malloc_device<char>(cap, q_);
    u32* mlocid = sycl::malloc_device<u32>(cap, q_);
    u32* ccountd = sycl::malloc_device<u32>(1, q_);
    q_.memcpy(csward, query.swar_data(), query.swar.size() * sizeof(util::u64));
    q_.memcpy(cmaskd, query.mask_data(), query.mask.size() * sizeof(u16));
    metrics_.h2d_bytes +=
        query.swar.size() * sizeof(util::u64) + query.mask.size() * sizeof(u16);
    zero_count(ccountd);

    const std::string tag =
        std::string("comparer/") + comparer_variant_name(opt_.variant);
    detail::kernel_record_scope rec(opt_, tag);
    comparer_swar_args base;
    base.locicnts = locicnt_;
    base.chr_packed2 = chr2_;
    base.chr_amb2 = amb2_;
    base.chr = chr_;
    base.loci = loci_;
    base.flag = flag_;
    base.comp_swar = csward;
    base.comp_mask = cmaskd;
    base.plen = query.plen;
    base.swar_words = query.swar_words;
    base.threshold = threshold;
    base.mm_count = mmd;
    base.direction = dird;
    base.mm_loci = mlocid;
    base.entrycount = ccountd;
    base.entry_capacity = static_cast<u32>(cap);
    const sycl::nd_range<1> ndr{sycl::range<1>(gws), sycl::range<1>(lws)};
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name(tag.c_str());
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       sycl::local_accessor<util::u64, 1> l_swar(sycl::range<1>(query.swar.size()),
                                                 cgh);
       sycl::local_accessor<u16, 1> l_cmask(sycl::range<1>(query.mask.size()), cgh);
       const auto kernel = [=](sycl::nd_item<1> item) {
         comparer_swar_args a = base;
         a.l_comp_swar = l_swar.get_pointer();
         a.l_comp_mask = l_cmask.get_pointer();
         comparer_swar_kernel<P, sycl::nd_item<1>, true>(item, a);
       };
       if (opt_.counting) {
         cgh.parallel_for(ndr, kernel);
       } else {
         cgh.cof_parallel_for_lanes(ndr, kernel, [=](size_t first, size_t nlanes) {
           comparer_swar_args a = base;
           // Lane rows skip the cooperative fetch; constants come straight
           // from the device-global arrays (read-only through these aliases).
           a.l_comp_swar = const_cast<util::u64*>(a.comp_swar);
           a.l_comp_mask = const_cast<u16*>(a.comp_mask);
           comparer_swar_lanes<true>(a, first, nlanes);
         });
       }
     }).wait();
    const auto stats = q_.cof_last_launch();
    metrics_.kernel_nanos += stats.wall_nanos;
    ++metrics_.comparer_launches;
    rec.finish(stats.wall_nanos);

    const u32 n = read_count(ccountd);
    detail::check_entry_capacity("comparer", n, cap);
    out.mm.resize(n);
    out.dir.resize(n);
    out.loci.resize(n);
    if (n != 0) {
      q_.memcpy(out.mm.data(), mmd, n * sizeof(u16));
      q_.memcpy(out.dir.data(), dird, n);
      q_.memcpy(out.loci.data(), mlocid, n * sizeof(u32));
      metrics_.d2h_bytes += n * (sizeof(u16) + 1 + sizeof(u32));
    }
    metrics_.total_entries += n;
    sycl::free(csward, q_);
    sycl::free(cmaskd, q_);
    sycl::free(mmd, q_);
    sycl::free(dird, q_);
    sycl::free(mlocid, q_);
    sycl::free(ccountd, q_);
    return out;
  }

  /// Batched comparer, launch half: one multi-query kernel over the
  /// device-resident loci/flag arrays; output allocations stay on device
  /// (staged members) until fetch_staged() downloads and frees them.
  template <class P>
  void launch_batch_impl(const std::vector<device_pattern>& queries,
                         const std::vector<u16>& thresholds) {
    if (opt_.variant == comparer_variant::opt6) {
      launch_batch_swar<P>(queries, thresholds);
      return;
    }
    release_batch();
    batch_staged_ = true;
    if (locicnt_ == 0 || queries.empty()) return;  // fetch yields empty
    COF_CHECK(queries.size() == thresholds.size());
    const u32 nq = static_cast<u32>(queries.size());
    const u32 plen = queries.front().plen;
    COF_CHECK_MSG(plen == plen_, "query length != pattern length");

    std::string comp_all;
    std::vector<i32> cidx_all;
    std::vector<u16> cmask_all;
    for (const auto& q : queries) {
      COF_CHECK_MSG(q.plen == plen, "batched queries must share one length");
      comp_all += q.fwrc;
      cidx_all.insert(cidx_all.end(), q.index.begin(), q.index.end());
      cmask_all.insert(cmask_all.end(), q.mask.begin(), q.mask.end());
    }

    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt_, lws);
    const usize cap = cap_entries(static_cast<usize>(locicnt_) * 2 * nq);
    batch_cap_ = cap;

    char* compd = sycl::malloc_device<char>(comp_all.size(), q_);
    i32* cidxd = sycl::malloc_device<i32>(cidx_all.size(), q_);
    u16* cmaskd = sycl::malloc_device<u16>(cmask_all.size(), q_);
    u16* thrd = sycl::malloc_device<u16>(nq, q_);
    batch_mm_ = sycl::malloc_device<u16>(cap, q_);
    batch_dir_ = sycl::malloc_device<char>(cap, q_);
    batch_loci_ = sycl::malloc_device<u32>(cap, q_);
    batch_query_ = sycl::malloc_device<u16>(cap, q_);
    batch_count_ = sycl::malloc_device<u32>(1, q_);
    q_.memcpy(compd, comp_all.data(), comp_all.size());
    q_.memcpy(cidxd, cidx_all.data(), cidx_all.size() * sizeof(i32));
    q_.memcpy(thrd, thresholds.data(), nq * sizeof(u16));
    metrics_.h2d_bytes +=
        comp_all.size() + cidx_all.size() * sizeof(i32) + nq * sizeof(u16);
    if (opt_.variant == comparer_variant::opt5) {
      q_.memcpy(cmaskd, cmask_all.data(), cmask_all.size() * sizeof(u16));
      metrics_.h2d_bytes += cmask_all.size() * sizeof(u16);
    }
    zero_count(batch_count_);

    const bool use_mask = opt_.variant == comparer_variant::opt5;
    detail::kernel_record_scope rec(opt_, "comparer/batch");
    const u32 locicnt = locicnt_;
    const char* chr = chr_;
    const u32* loci = loci_;
    const char* flag = flag_;
    u16* mmd = batch_mm_;
    char* dird = batch_dir_;
    u32* mlocid = batch_loci_;
    u16* mqueryd = batch_query_;
    u32* ccountd = batch_count_;
    const u32 entry_cap = static_cast<u32>(cap);
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("comparer/batch");
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       sycl::local_accessor<char, 1> l_comp(sycl::range<1>(comp_all.size()), cgh);
       sycl::local_accessor<i32, 1> l_cidx(sycl::range<1>(cidx_all.size()), cgh);
       sycl::local_accessor<u16, 1> l_cmask(sycl::range<1>(cmask_all.size()), cgh);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          comparer_multi_args a;
                          a.locicnts = locicnt;
                          a.chr = chr;
                          a.loci = loci;
                          a.flag = flag;
                          a.comp = compd;
                          a.comp_index = cidxd;
                          a.comp_mask = cmaskd;
                          a.thresholds = thrd;
                          a.nqueries = nq;
                          a.plen = plen;
                          a.mm_count = mmd;
                          a.direction = dird;
                          a.mm_loci = mlocid;
                          a.mm_query = mqueryd;
                          a.entrycount = ccountd;
                          a.entry_capacity = entry_cap;
                          a.l_comp = l_comp.get_pointer();
                          a.l_comp_index = l_cidx.get_pointer();
                          a.l_comp_mask = l_cmask.get_pointer();
                          if (use_mask) {
                            comparer_multi_kernel_mask<P>(item, a);
                          } else {
                            comparer_multi_kernel<P>(item, a);
                          }
                        });
     }).wait();
    const auto stats = q_.cof_last_launch();
    metrics_.kernel_nanos += stats.wall_nanos;
    ++metrics_.comparer_launches;
    rec.finish(stats.wall_nanos);

    sycl::free(compd, q_);
    sycl::free(cidxd, q_);
    sycl::free(cmaskd, q_);
    sycl::free(thrd, q_);
  }

  /// Batched comparer under opt6: one multi-query SWAR kernel
  /// (comparer_multi_swar_kernel), loci/flag read once per locus.
  template <class P>
  void launch_batch_swar(const std::vector<device_pattern>& queries,
                         const std::vector<u16>& thresholds) {
    release_batch();
    batch_staged_ = true;
    if (locicnt_ == 0 || queries.empty()) return;  // fetch yields empty
    COF_CHECK(queries.size() == thresholds.size());
    const u32 nq = static_cast<u32>(queries.size());
    const u32 plen = queries.front().plen;
    const u32 swar_words = queries.front().swar_words;
    COF_CHECK_MSG(plen == plen_, "query length != pattern length");

    std::vector<util::u64> swar_all;
    std::vector<u16> cmask_all;
    for (const auto& q : queries) {
      COF_CHECK_MSG(q.plen == plen, "batched queries must share one length");
      swar_all.insert(swar_all.end(), q.swar.begin(), q.swar.end());
      cmask_all.insert(cmask_all.end(), q.mask.begin(), q.mask.end());
    }

    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt_, lws);
    const usize cap = cap_entries(static_cast<usize>(locicnt_) * 2 * nq);
    batch_cap_ = cap;

    util::u64* csward = sycl::malloc_device<util::u64>(swar_all.size(), q_);
    u16* cmaskd = sycl::malloc_device<u16>(cmask_all.size(), q_);
    u16* thrd = sycl::malloc_device<u16>(nq, q_);
    batch_mm_ = sycl::malloc_device<u16>(cap, q_);
    batch_dir_ = sycl::malloc_device<char>(cap, q_);
    batch_loci_ = sycl::malloc_device<u32>(cap, q_);
    batch_query_ = sycl::malloc_device<u16>(cap, q_);
    batch_count_ = sycl::malloc_device<u32>(1, q_);
    q_.memcpy(csward, swar_all.data(), swar_all.size() * sizeof(util::u64));
    q_.memcpy(cmaskd, cmask_all.data(), cmask_all.size() * sizeof(u16));
    q_.memcpy(thrd, thresholds.data(), nq * sizeof(u16));
    metrics_.h2d_bytes += swar_all.size() * sizeof(util::u64) +
                          cmask_all.size() * sizeof(u16) + nq * sizeof(u16);
    zero_count(batch_count_);

    detail::kernel_record_scope rec(opt_, "comparer/batch");
    comparer_multi_swar_args base;
    base.locicnts = locicnt_;
    base.chr_packed2 = chr2_;
    base.chr_amb2 = amb2_;
    base.chr = chr_;
    base.loci = loci_;
    base.flag = flag_;
    base.comp_swar = csward;
    base.comp_mask = cmaskd;
    base.thresholds = thrd;
    base.nqueries = nq;
    base.plen = plen;
    base.swar_words = swar_words;
    base.mm_count = batch_mm_;
    base.direction = batch_dir_;
    base.mm_loci = batch_loci_;
    base.mm_query = batch_query_;
    base.entrycount = batch_count_;
    base.entry_capacity = static_cast<u32>(cap);
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("comparer/batch");
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       sycl::local_accessor<util::u64, 1> l_swar(sycl::range<1>(swar_all.size()), cgh);
       sycl::local_accessor<u16, 1> l_cmask(sycl::range<1>(cmask_all.size()), cgh);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          comparer_multi_swar_args a = base;
                          a.l_comp_swar = l_swar.get_pointer();
                          a.l_comp_mask = l_cmask.get_pointer();
                          comparer_multi_swar_kernel<P, sycl::nd_item<1>, true>(item,
                                                                                a);
                        });
     }).wait();
    const auto stats = q_.cof_last_launch();
    metrics_.kernel_nanos += stats.wall_nanos;
    ++metrics_.comparer_launches;
    rec.finish(stats.wall_nanos);

    sycl::free(csward, q_);
    sycl::free(cmaskd, q_);
    sycl::free(thrd, q_);
  }

  /// Batched comparer, fetch half: deferred download + free of the staged
  /// device allocations.
  entries fetch_staged() {
    COF_CHECK_MSG(batch_staged_, "fetch_entries without launch_comparer_batch");
    batch_staged_ = false;
    entries out;
    if (batch_cap_ == 0) return out;  // empty launch (no loci or no queries)

    const u32 n = read_count(batch_count_);
    detail::check_entry_capacity("comparer/batch", n, batch_cap_);
    out.mm.resize(n);
    out.dir.resize(n);
    out.loci.resize(n);
    out.qidx.resize(n);
    if (n != 0) {
      q_.memcpy(out.mm.data(), batch_mm_, n * sizeof(u16));
      q_.memcpy(out.dir.data(), batch_dir_, n);
      q_.memcpy(out.loci.data(), batch_loci_, n * sizeof(u32));
      q_.memcpy(out.qidx.data(), batch_query_, n * sizeof(u16));
      metrics_.d2h_bytes += n * (2 * sizeof(u16) + 1 + sizeof(u32));
    }
    metrics_.total_entries += n;
    release_batch();
    return out;
  }

  void release_batch() {
    sycl::free(batch_mm_, q_);
    sycl::free(batch_dir_, q_);
    sycl::free(batch_loci_, q_);
    sycl::free(batch_query_, q_);
    sycl::free(batch_count_, q_);
    batch_mm_ = nullptr;
    batch_dir_ = nullptr;
    batch_loci_ = nullptr;
    batch_query_ = nullptr;
    batch_count_ = nullptr;
    batch_cap_ = 0;
  }

  pipeline_options opt_;
  sycl::queue q_;
  pipeline_metrics metrics_;
  char* chr_ = nullptr;
  // opt6: the chunk's 2-bit words + ambiguity flags (see kernels_swar.hpp).
  util::u64* chr2_ = nullptr;
  util::u64* amb2_ = nullptr;
  u32* loci_ = nullptr;
  char* flag_ = nullptr;
  u32* count_ = nullptr;
  // Staged output of the last launch_comparer_batch (freed by fetch_staged,
  // release_batch, or the destructor).
  u16* batch_mm_ = nullptr;
  char* batch_dir_ = nullptr;
  u32* batch_loci_ = nullptr;
  u16* batch_query_ = nullptr;
  u32* batch_count_ = nullptr;
  usize batch_cap_ = 0;
  bool batch_staged_ = false;
  usize chunk_len_ = 0;
  usize loci_cap_ = 0;
  u32 locicnt_ = 0;
  u32 plen_ = 0;
};

}  // namespace

std::unique_ptr<device_pipeline> make_sycl_usm_pipeline(const pipeline_options& opt) {
  return std::make_unique<sycl_usm_pipeline>(opt);
}

}  // namespace cof
