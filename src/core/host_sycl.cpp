// The migrated SYCL host program (paper §III): device selector + queue,
// buffers constructed from host pointers, constant/local accessors, lambda
// kernels submitted to the queue, data movement through ranged accessors and
// handler::copy, cleanup implicit in destructors.
#include <algorithm>
#include <optional>

#include "core/kernels_swar.hpp"
#include "core/pipeline.hpp"
#include "syclsim/sycl.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace cof {

namespace {

class sycl_pipeline final : public device_pipeline {
 public:
  explicit sycl_pipeline(const pipeline_options& opt)
      : device_pipeline(opt), opt_(opt), q_(sycl::gpu_selector{}) {
    if (opt_.wg_size == 0) opt_.wg_size = 256;  // the SYCL application pins 256
  }

  const char* name() const override { return "sycl"; }

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
      q_.submit([&](sycl::handler& cgh) {
         auto acc = loci_buf_->get_access<sycl::sycl_read>(
             cgh, sycl::range<1>(locicnt_), sycl::id<1>(0));
         cgh.copy(acc, out.data());
       }).wait();
      metrics_.d2h_bytes += locicnt_ * sizeof(u32);
    }
    return out;
  }

  std::vector<char> read_flags() override {
    std::vector<char> out(locicnt_);
    if (locicnt_ != 0) {
      q_.submit([&](sycl::handler& cgh) {
         auto acc = flag_buf_->get_access<sycl::sycl_read>(
             cgh, sycl::range<1>(locicnt_), sycl::id<1>(0));
         cgh.copy(acc, out.data());
       }).wait();
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
      q_.submit([&](sycl::handler& cgh) {
         auto acc = loci_buf_->get_access<sycl::sycl_write>(
             cgh, sycl::range<1>(n), sycl::id<1>(0));
         cgh.copy(loci.data(), acc);
       }).wait();
      q_.submit([&](sycl::handler& cgh) {
         auto acc = flag_buf_->get_access<sycl::sycl_write>(
             cgh, sycl::range<1>(n), sycl::id<1>(0));
         cgh.copy(flags.data(), acc);
       }).wait();
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
    chunk_len_ = ch.text.size();
    locicnt_ = 0;
    chr_buf_.emplace(ch.text.data(), sycl::range<1>(chunk_len_));
    if (packs_words()) {
      // opt6 keeps the producer's 2-bit words resident (plus the ambiguity
      // flags) for the packed-word finder and comparer; the char chunk stays
      // for the comparer's ambiguous-base fallback.
      const swar_ref& words = words_of(ch);
      chr2_buf_.emplace(words.packed2.data(), sycl::range<1>(words.packed2.size()));
      amb2_buf_.emplace(words.amb2.data(), sycl::range<1>(words.amb2.size()));
    }
    alloc_hits(hit_cap);
    count_buf_.emplace(sycl::range<1>(1));
    metrics_.h2d_bytes += chunk_bytes(chunk_len_);
  }

  /// Device-resident hit arrays for `cap` entries: the finder's worst case
  /// (every position a hit) unless opt_.max_entries caps it — the kernels
  /// clamp their appends to the capacity and the host reports any
  /// overflow — or a warm chunk's prebuilt hits.
  void alloc_hits(usize cap) {
    loci_cap_ = cap;
    loci_buf_.emplace(sycl::range<1>(std::max<usize>(1, loci_cap_)));
    flag_buf_.emplace(sycl::range<1>(std::max<usize>(1, loci_cap_)));
  }

  /// Zero the one-element counter buffer through a write accessor.
  void zero_count(sycl::buffer<u32, 1>& buf) {
    const u32 zero = 0;
    q_.submit([&](sycl::handler& cgh) {
       auto acc = buf.get_access<sycl::sycl_write>(cgh);
       cgh.copy(&zero, acc);
     }).wait();
    metrics_.h2d_bytes += sizeof(u32);
  }

  u32 read_count(sycl::buffer<u32, 1>& buf) {
    u32 count = 0;
    q_.submit([&](sycl::handler& cgh) {
       auto acc = buf.get_access<sycl::sycl_read>(cgh);
       cgh.copy(acc, &count);
     }).wait();
    metrics_.d2h_bytes += sizeof(u32);
    return count;
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
    zero_count(*count_buf_);
    detail::kernel_record_scope rec(opt_, "finder");
    if (packs_words()) {
      submit_finder_swar<P>(pat, chrsize);
    } else {
      submit_finder<P>(pat, chrsize);
    }
    const auto stats = q_.cof_last_launch();
    metrics_.kernel_nanos += stats.wall_nanos;
    ++metrics_.finder_launches;
    rec.finish(stats.wall_nanos);

    locicnt_ = read_count(*count_buf_);
    detail::check_entry_capacity("finder", locicnt_, loci_cap_);
    metrics_.total_loci += locicnt_;
    return locicnt_;
  }

  /// The per-position finder (base..opt5): one work-item per start
  /// position, pattern fetched into local memory behind one barrier.
  template <class P>
  void submit_finder(const device_pattern& pat, u32 chrsize) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(chrsize, lws);
    sycl::buffer<char, 1> pat_buf(pat.data(), sycl::range<1>(pat.device_chars()));
    sycl::buffer<i32, 1> idx_buf(pat.index_data(), sycl::range<1>(pat.index.size()));
    sycl::buffer<u16, 1> mask_buf(pat.mask_data(), sycl::range<1>(pat.mask.size()));
    metrics_.h2d_bytes += pat.device_chars() + pat.index.size() * sizeof(i32);
    const bool use_mask = comparer_variant_uses_mask(opt_.variant);
    if (use_mask) metrics_.h2d_bytes += pat.mask.size() * sizeof(u16);
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("finder");
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       auto chr = chr_buf_->get_access<sycl::sycl_read>(cgh);
       auto patc = pat_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto pidx = idx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto pmask = mask_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_write>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_write>(cgh);
       auto cnt = count_buf_->get_access<sycl::sycl_read_write>(cgh);
       sycl::accessor<char, 1, sycl::sycl_read_write, sycl::sycl_lmem> l_pat(
           sycl::range<1>(pat.device_chars()), cgh);
       sycl::accessor<i32, 1, sycl::sycl_read_write, sycl::sycl_lmem> l_idx(
           sycl::range<1>(pat.index.size()), cgh);
       sycl::accessor<u16, 1, sycl::sycl_read_write, sycl::sycl_lmem> l_mask(
           sycl::range<1>(pat.mask.size()), cgh);
       const u32 plen = pat.plen;
       const usize loci_cap = loci_cap_;
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          finder_args a;
                          a.chr = chr.get_pointer();
                          a.pat = patc.get_pointer();
                          a.pat_index = pidx.get_pointer();
                          a.pat_mask = pmask.get_pointer();
                          a.chrsize = chrsize;
                          a.plen = plen;
                          a.loci = loci.get_pointer();
                          a.flag = flag.get_pointer();
                          a.entrycount = cnt.get_pointer();
                          a.entry_capacity = static_cast<u32>(loci_cap);
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
  }

  /// opt6: the packed-word finder over the resident words, one work-item
  /// per 32 start positions, no local memory and no barrier.
  template <class P>
  void submit_finder_swar(const device_pattern& pat, u32 chrsize) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(swar_finder_items(chrsize), lws);
    sycl::buffer<i32, 1> idx_buf(pat.index_data(), sycl::range<1>(pat.index.size()));
    sycl::buffer<u16, 1> mask_buf(pat.mask_data(), sycl::range<1>(pat.mask.size()));
    metrics_.h2d_bytes += pat.index.size() * sizeof(i32) + pat.mask.size() * sizeof(u16);
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("finder");
       cgh.cof_hint_no_barrier();
       auto chr2 = chr2_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb2 = amb2_buf_->get_access<sycl::sycl_read>(cgh);
       auto pidx = idx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto pmask = mask_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_write>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_write>(cgh);
       auto cnt = count_buf_->get_access<sycl::sycl_read_write>(cgh);
       const u32 plen = pat.plen;
       const u32 loci_cap = static_cast<u32>(loci_cap_);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          finder_swar_args a;
                          a.chr_packed2 = chr2.get_pointer();
                          a.chr_amb2 = amb2.get_pointer();
                          a.pat_mask = pmask.get_pointer();
                          a.pat_index = pidx.get_pointer();
                          a.chrsize = chrsize;
                          a.plen = plen;
                          a.loci = loci.get_pointer();
                          a.flag = flag.get_pointer();
                          a.entrycount = cnt.get_pointer();
                          a.entry_capacity = loci_cap;
                          finder_swar_kernel<P>(item, a);
                        });
     }).wait();
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
    // fw + rc per locus worst case, shrunk by the max_entries cap.
    const usize cap = cap_entries(static_cast<usize>(locicnt_) * 2);

    sycl::buffer<char, 1> comp_buf(query.data(), sycl::range<1>(query.device_chars()));
    sycl::buffer<i32, 1> cidx_buf(query.index_data(),
                                  sycl::range<1>(query.index.size()));
    sycl::buffer<u16, 1> cmask_buf(query.mask_data(), sycl::range<1>(query.mask.size()));
    sycl::buffer<u16, 1> mm_buf{sycl::range<1>(cap)};
    sycl::buffer<char, 1> dir_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> mm_loci_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> ccount_buf{sycl::range<1>(1)};
    metrics_.h2d_bytes += query.device_chars() + query.index.size() * sizeof(i32);
    if (opt_.variant == comparer_variant::opt5) {
      metrics_.h2d_bytes += query.mask.size() * sizeof(u16);
    }
    zero_count(ccount_buf);

    const std::string tag = std::string("comparer/") + comparer_variant_name(opt_.variant);
    detail::kernel_record_scope rec(opt_, tag);
    const comparer_variant variant = opt_.variant;
    const u32 locicnt = locicnt_;
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name(tag.c_str());
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       auto chr = chr_buf_->get_access<sycl::sycl_read>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_read>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_read>(cgh);
       auto comp = comp_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto cidx = cidx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto cmask = cmask_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto mm = mm_buf.get_access<sycl::sycl_write>(cgh);
       auto dir = dir_buf.get_access<sycl::sycl_write>(cgh);
       auto mloci = mm_loci_buf.get_access<sycl::sycl_write>(cgh);
       auto cnt = ccount_buf.get_access<sycl::sycl_read_write>(cgh);
       sycl::accessor<char, 1, sycl::sycl_read_write, sycl::sycl_lmem> l_comp(
           sycl::range<1>(query.device_chars()), cgh);
       sycl::accessor<i32, 1, sycl::sycl_read_write, sycl::sycl_lmem> l_cidx(
           sycl::range<1>(query.index.size()), cgh);
       sycl::accessor<u16, 1, sycl::sycl_read_write, sycl::sycl_lmem> l_cmask(
           sycl::range<1>(query.mask.size()), cgh);
       const u32 plen = query.plen;
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          comparer_args a;
                          a.locicnts = locicnt;
                          a.chr = chr.get_pointer();
                          a.loci = loci.get_pointer();
                          a.flag = flag.get_pointer();
                          a.comp = comp.get_pointer();
                          a.comp_index = cidx.get_pointer();
                          a.comp_mask = cmask.get_pointer();
                          a.plen = plen;
                          a.threshold = threshold;
                          a.mm_count = mm.get_pointer();
                          a.direction = dir.get_pointer();
                          a.mm_loci = mloci.get_pointer();
                          a.entrycount = cnt.get_pointer();
                          a.entry_capacity = static_cast<u32>(cap);
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

    return download_entries(mm_buf, dir_buf, mm_loci_buf, ccount_buf, cap);
  }

  /// Count readback + entry-array download shared by the single-query
  /// comparer launches (opt5-and-below and the opt6 SWAR twin).
  entries download_entries(sycl::buffer<u16, 1>& mm_buf, sycl::buffer<char, 1>& dir_buf,
                           sycl::buffer<u32, 1>& mm_loci_buf,
                           sycl::buffer<u32, 1>& ccount_buf, usize cap) {
    entries out;
    const u32 n = read_count(ccount_buf);
    detail::check_entry_capacity("comparer", n, cap);
    out.mm.resize(n);
    out.dir.resize(n);
    out.loci.resize(n);
    if (n != 0) {
      q_.submit([&](sycl::handler& cgh) {
         auto acc = mm_buf.get_access<sycl::sycl_read>(cgh, sycl::range<1>(n),
                                                       sycl::id<1>(0));
         cgh.copy(acc, out.mm.data());
       }).wait();
      q_.submit([&](sycl::handler& cgh) {
         auto acc = dir_buf.get_access<sycl::sycl_read>(cgh, sycl::range<1>(n),
                                                        sycl::id<1>(0));
         cgh.copy(acc, out.dir.data());
       }).wait();
      q_.submit([&](sycl::handler& cgh) {
         auto acc = mm_loci_buf.get_access<sycl::sycl_read>(cgh, sycl::range<1>(n),
                                                            sycl::id<1>(0));
         cgh.copy(acc, out.loci.data());
       }).wait();
      metrics_.d2h_bytes += n * (sizeof(u16) + sizeof(char) + sizeof(u32));
    }
    metrics_.total_entries += n;
    return out;
  }

  /// opt6: SWAR comparer over the chunk's 2-bit words, raw-char LUT
  /// fallback for ambiguous reference bases. Non-counting runs additionally
  /// install the lane-batched row body, which the executor substitutes for
  /// per-item execution when the host's SIMD lanes are enabled.
  template <class P>
  entries run_comparer_swar(const device_pattern& query, u16 threshold) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt_, lws);
    const usize cap = cap_entries(static_cast<usize>(locicnt_) * 2);

    sycl::buffer<util::u64, 1> cswar_buf(query.swar_data(),
                                         sycl::range<1>(query.swar.size()));
    sycl::buffer<u16, 1> cmask_buf(query.mask_data(), sycl::range<1>(query.mask.size()));
    sycl::buffer<u16, 1> mm_buf{sycl::range<1>(cap)};
    sycl::buffer<char, 1> dir_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> mm_loci_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> ccount_buf{sycl::range<1>(1)};
    metrics_.h2d_bytes +=
        query.swar.size() * sizeof(util::u64) + query.mask.size() * sizeof(u16);
    zero_count(ccount_buf);

    const std::string tag =
        std::string("comparer/") + comparer_variant_name(opt_.variant);
    detail::kernel_record_scope rec(opt_, tag);
    const u32 locicnt = locicnt_;
    const u32 plen = query.plen;
    const u32 swar_words = query.swar_words;
    const sycl::nd_range<1> ndr{sycl::range<1>(gws), sycl::range<1>(lws)};
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name(tag.c_str());
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       auto chr = chr_buf_->get_access<sycl::sycl_read>(cgh);
       auto chr2 = chr2_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb2 = amb2_buf_->get_access<sycl::sycl_read>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_read>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_read>(cgh);
       auto cswar = cswar_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto cmask = cmask_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto mm = mm_buf.get_access<sycl::sycl_write>(cgh);
       auto dir = dir_buf.get_access<sycl::sycl_write>(cgh);
       auto mloci = mm_loci_buf.get_access<sycl::sycl_write>(cgh);
       auto cnt = ccount_buf.get_access<sycl::sycl_read_write>(cgh);
       sycl::local_accessor<util::u64, 1> l_swar(sycl::range<1>(query.swar.size()),
                                                 cgh);
       sycl::local_accessor<u16, 1> l_cmask(sycl::range<1>(query.mask.size()), cgh);
       const auto fill_args = [=](comparer_swar_args& a) {
         a.locicnts = locicnt;
         a.chr_packed2 = chr2.get_pointer();
         a.chr_amb2 = amb2.get_pointer();
         a.chr = chr.get_pointer();
         a.loci = loci.get_pointer();
         a.flag = flag.get_pointer();
         a.comp_swar = cswar.get_pointer();
         a.comp_mask = cmask.get_pointer();
         a.plen = plen;
         a.swar_words = swar_words;
         a.threshold = threshold;
         a.mm_count = mm.get_pointer();
         a.direction = dir.get_pointer();
         a.mm_loci = mloci.get_pointer();
         a.entrycount = cnt.get_pointer();
         a.entry_capacity = static_cast<u32>(cap);
       };
       const auto kernel = [=](sycl::nd_item<1> item) {
         comparer_swar_args a;
         fill_args(a);
         a.l_comp_swar = l_swar.get_pointer();
         a.l_comp_mask = l_cmask.get_pointer();
         comparer_swar_kernel<P, sycl::nd_item<1>, true>(item, a);
       };
       if (opt_.counting) {
         cgh.parallel_for(ndr, kernel);
       } else {
         cgh.cof_parallel_for_lanes(
             ndr, kernel, [=](size_t first, size_t nlanes) {
               comparer_swar_args a;
               fill_args(a);
               // Lane rows skip the cooperative fetch; constants are read
               // straight from the global arrays.
               a.l_comp_swar = cswar.get_pointer();
               a.l_comp_mask = cmask.get_pointer();
               comparer_swar_lanes<true>(a, first, nlanes);
             });
       }
     }).wait();
    const auto stats = q_.cof_last_launch();
    metrics_.kernel_nanos += stats.wall_nanos;
    ++metrics_.comparer_launches;
    rec.finish(stats.wall_nanos);
    return download_entries(mm_buf, dir_buf, mm_loci_buf, ccount_buf, cap);
  }

  /// Batched comparer, launch half: one kernel covers every query (see
  /// kernels.hpp/comparer_multi_kernel), consuming the finder's loci/flag
  /// buffers device-side. Output buffers stay device-resident as staged
  /// members until fetch_staged() downloads them.
  template <class P>
  void launch_batch_impl(const std::vector<device_pattern>& queries,
                         const std::vector<u16>& thresholds) {
    if (opt_.variant == comparer_variant::opt6) {
      launch_batch_swar<P>(queries, thresholds);
      return;
    }
    batch_staged_ = true;
    batch_cap_ = 0;
    if (locicnt_ == 0 || queries.empty()) return;  // fetch yields empty
    COF_CHECK(queries.size() == thresholds.size());
    const u32 nq = static_cast<u32>(queries.size());
    const u32 plen = queries.front().plen;
    COF_CHECK_MSG(plen == plen_, "query length != pattern length");

    // Concatenate every query's device arrays.
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

    sycl::buffer<char, 1> comp_buf(comp_all.data(), sycl::range<1>(comp_all.size()));
    sycl::buffer<i32, 1> cidx_buf(cidx_all.data(), sycl::range<1>(cidx_all.size()));
    sycl::buffer<u16, 1> cmask_buf(cmask_all.data(), sycl::range<1>(cmask_all.size()));
    sycl::buffer<u16, 1> thr_buf(thresholds.data(), sycl::range<1>(nq));
    batch_mm_buf_.emplace(sycl::range<1>(cap));
    batch_dir_buf_.emplace(sycl::range<1>(cap));
    batch_loci_buf_.emplace(sycl::range<1>(cap));
    batch_query_buf_.emplace(sycl::range<1>(cap));
    batch_count_buf_.emplace(sycl::range<1>(1));
    auto& mm_buf = *batch_mm_buf_;
    auto& dir_buf = *batch_dir_buf_;
    auto& mm_loci_buf = *batch_loci_buf_;
    auto& mm_query_buf = *batch_query_buf_;
    auto& ccount_buf = *batch_count_buf_;
    batch_cap_ = cap;
    metrics_.h2d_bytes +=
        comp_all.size() + cidx_all.size() * sizeof(i32) + nq * sizeof(u16);
    zero_count(ccount_buf);

    const bool use_mask = opt_.variant == comparer_variant::opt5;
    detail::kernel_record_scope rec(opt_, "comparer/batch");
    const u32 locicnt = locicnt_;
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("comparer/batch");
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       auto chr = chr_buf_->get_access<sycl::sycl_read>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_read>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_read>(cgh);
       auto comp = comp_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto cidx = cidx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto cmask = cmask_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto thr = thr_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto mm = mm_buf.get_access<sycl::sycl_write>(cgh);
       auto dir = dir_buf.get_access<sycl::sycl_write>(cgh);
       auto mloci = mm_loci_buf.get_access<sycl::sycl_write>(cgh);
       auto mquery = mm_query_buf.get_access<sycl::sycl_write>(cgh);
       auto cnt = ccount_buf.get_access<sycl::sycl_read_write>(cgh);
       sycl::local_accessor<char, 1> l_comp(sycl::range<1>(comp_all.size()), cgh);
       sycl::local_accessor<i32, 1> l_cidx(sycl::range<1>(cidx_all.size()), cgh);
       sycl::local_accessor<u16, 1> l_cmask(sycl::range<1>(cmask_all.size()), cgh);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          comparer_multi_args a;
                          a.locicnts = locicnt;
                          a.chr = chr.get_pointer();
                          a.loci = loci.get_pointer();
                          a.flag = flag.get_pointer();
                          a.comp = comp.get_pointer();
                          a.comp_index = cidx.get_pointer();
                          a.comp_mask = cmask.get_pointer();
                          a.thresholds = thr.get_pointer();
                          a.nqueries = nq;
                          a.plen = plen;
                          a.mm_count = mm.get_pointer();
                          a.direction = dir.get_pointer();
                          a.mm_loci = mloci.get_pointer();
                          a.mm_query = mquery.get_pointer();
                          a.entrycount = cnt.get_pointer();
                          a.entry_capacity = static_cast<u32>(cap);
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
  }

  /// Batched comparer under opt6: one SWAR kernel covers every query,
  /// reading loci/flag once per locus (comparer_multi_swar_kernel).
  template <class P>
  void launch_batch_swar(const std::vector<device_pattern>& queries,
                         const std::vector<u16>& thresholds) {
    batch_staged_ = true;
    batch_cap_ = 0;
    if (locicnt_ == 0 || queries.empty()) return;  // fetch yields empty
    COF_CHECK(queries.size() == thresholds.size());
    const u32 nq = static_cast<u32>(queries.size());
    const u32 plen = queries.front().plen;
    const u32 swar_words = queries.front().swar_words;
    COF_CHECK_MSG(plen == plen_, "query length != pattern length");

    // Concatenate every query's SWAR deny masks and fallback LUTs.
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

    sycl::buffer<util::u64, 1> cswar_buf(swar_all.data(),
                                         sycl::range<1>(swar_all.size()));
    sycl::buffer<u16, 1> cmask_buf(cmask_all.data(), sycl::range<1>(cmask_all.size()));
    sycl::buffer<u16, 1> thr_buf(thresholds.data(), sycl::range<1>(nq));
    batch_mm_buf_.emplace(sycl::range<1>(cap));
    batch_dir_buf_.emplace(sycl::range<1>(cap));
    batch_loci_buf_.emplace(sycl::range<1>(cap));
    batch_query_buf_.emplace(sycl::range<1>(cap));
    batch_count_buf_.emplace(sycl::range<1>(1));
    batch_cap_ = cap;
    metrics_.h2d_bytes += swar_all.size() * sizeof(util::u64) +
                          cmask_all.size() * sizeof(u16) + nq * sizeof(u16);
    zero_count(*batch_count_buf_);

    detail::kernel_record_scope rec(opt_, "comparer/batch");
    const u32 locicnt = locicnt_;
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("comparer/batch");
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       auto chr = chr_buf_->get_access<sycl::sycl_read>(cgh);
       auto chr2 = chr2_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb2 = amb2_buf_->get_access<sycl::sycl_read>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_read>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_read>(cgh);
       auto cswar = cswar_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto cmask = cmask_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto thr = thr_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto mm = batch_mm_buf_->get_access<sycl::sycl_write>(cgh);
       auto dir = batch_dir_buf_->get_access<sycl::sycl_write>(cgh);
       auto mloci = batch_loci_buf_->get_access<sycl::sycl_write>(cgh);
       auto mquery = batch_query_buf_->get_access<sycl::sycl_write>(cgh);
       auto cnt = batch_count_buf_->get_access<sycl::sycl_read_write>(cgh);
       sycl::local_accessor<util::u64, 1> l_swar(sycl::range<1>(swar_all.size()), cgh);
       sycl::local_accessor<u16, 1> l_cmask(sycl::range<1>(cmask_all.size()), cgh);
       cgh.parallel_for(
           sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
           [=](sycl::nd_item<1> item) {
             comparer_multi_swar_args a;
             a.locicnts = locicnt;
             a.chr_packed2 = chr2.get_pointer();
             a.chr_amb2 = amb2.get_pointer();
             a.chr = chr.get_pointer();
             a.loci = loci.get_pointer();
             a.flag = flag.get_pointer();
             a.comp_swar = cswar.get_pointer();
             a.comp_mask = cmask.get_pointer();
             a.thresholds = thr.get_pointer();
             a.nqueries = nq;
             a.plen = plen;
             a.swar_words = swar_words;
             a.mm_count = mm.get_pointer();
             a.direction = dir.get_pointer();
             a.mm_loci = mloci.get_pointer();
             a.mm_query = mquery.get_pointer();
             a.entrycount = cnt.get_pointer();
             a.entry_capacity = static_cast<u32>(cap);
             a.l_comp_swar = l_swar.get_pointer();
             a.l_comp_mask = l_cmask.get_pointer();
             comparer_multi_swar_kernel<P, sycl::nd_item<1>, true>(item, a);
           });
     }).wait();
    const auto stats = q_.cof_last_launch();
    metrics_.kernel_nanos += stats.wall_nanos;
    ++metrics_.comparer_launches;
    rec.finish(stats.wall_nanos);
  }

  /// Batched comparer, fetch half: deferred download of the staged entry
  /// buffers (count + four arrays), then release of the device storage.
  entries fetch_staged() {
    COF_CHECK_MSG(batch_staged_, "fetch_entries without launch_comparer_batch");
    batch_staged_ = false;
    entries out;
    if (batch_cap_ == 0) return out;  // empty launch (no loci or no queries)

    const u32 n = read_count(*batch_count_buf_);
    detail::check_entry_capacity("comparer/batch", n, batch_cap_);
    out.mm.resize(n);
    out.dir.resize(n);
    out.loci.resize(n);
    out.qidx.resize(n);
    if (n != 0) {
      auto copy_out = [&](auto& buf, auto* dst) {
        q_.submit([&](sycl::handler& cgh) {
           auto acc = buf.template get_access<sycl::sycl_read>(
               cgh, sycl::range<1>(n), sycl::id<1>(0));
           cgh.copy(acc, dst);
         }).wait();
      };
      copy_out(*batch_mm_buf_, out.mm.data());
      copy_out(*batch_dir_buf_, out.dir.data());
      copy_out(*batch_loci_buf_, out.loci.data());
      copy_out(*batch_query_buf_, out.qidx.data());
      metrics_.d2h_bytes += n * (2 * sizeof(u16) + 1 + sizeof(u32));
    }
    metrics_.total_entries += n;
    batch_mm_buf_.reset();
    batch_dir_buf_.reset();
    batch_loci_buf_.reset();
    batch_query_buf_.reset();
    batch_count_buf_.reset();
    batch_cap_ = 0;
    return out;
  }

  pipeline_options opt_;
  sycl::queue q_;
  pipeline_metrics metrics_;
  std::optional<sycl::buffer<char, 1>> chr_buf_;
  // opt6: the chunk's 2-bit words + ambiguity flags (see kernels_swar.hpp).
  std::optional<sycl::buffer<util::u64, 1>> chr2_buf_;
  std::optional<sycl::buffer<util::u64, 1>> amb2_buf_;
  std::optional<sycl::buffer<u32, 1>> loci_buf_;
  std::optional<sycl::buffer<char, 1>> flag_buf_;
  std::optional<sycl::buffer<u32, 1>> count_buf_;
  // Staged output of the last launch_comparer_batch (device-resident until
  // fetch_staged).
  std::optional<sycl::buffer<u16, 1>> batch_mm_buf_;
  std::optional<sycl::buffer<char, 1>> batch_dir_buf_;
  std::optional<sycl::buffer<u32, 1>> batch_loci_buf_;
  std::optional<sycl::buffer<u16, 1>> batch_query_buf_;
  std::optional<sycl::buffer<u32, 1>> batch_count_buf_;
  usize batch_cap_ = 0;
  bool batch_staged_ = false;
  usize chunk_len_ = 0;
  usize loci_cap_ = 0;
  u32 locicnt_ = 0;
  u32 plen_ = 0;
};

}  // namespace

std::unique_ptr<device_pipeline> make_sycl_pipeline(const pipeline_options& opt) {
  return std::make_unique<sycl_pipeline>(opt);
}

std::vector<std::string> sycl_programming_steps() {
  // Table I, right column.
  return {
      "Device selector class",
      "Queue class",
      "Buffer class",
      "Lambda expressions",
      "Submit a SYCL kernel to a queue",
      "Implicit data transfer via accessors",
      "Event class",
      "Implicit resource release via destructors",
  };
}

}  // namespace cof
