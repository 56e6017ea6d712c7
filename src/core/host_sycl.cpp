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
  sycl_pipeline(const pipeline_options& opt, const char* name, kernel_tags tags)
      : device_pipeline(opt, name, std::move(tags)), q_(sycl::gpu_selector{}) {
    if (opt_.wg_size == 0) opt_.wg_size = 256;  // the SYCL application pins 256
  }
  explicit sycl_pipeline(const pipeline_options& opt)
      : sycl_pipeline(opt, "sycl", {"finder", comparer_tag(opt.variant)}) {}

 private:
  /// Bytes upload puts on the device for a chunk of `bases`: the two word
  /// arrays under opt6, else the chars.
  usize chunk_bytes(usize bases) const override {
    return packs_words() ? swar_ref_bytes(bases) : bases;
  }

  /// Upload the chunk (the producer's words under opt6, else its chars),
  /// allocate hit arrays for `hit_cap` entries and write any prebuilt hits
  /// into them.
  void upload(const packed_chunk& ch, usize hit_cap, std::span<const u32> loci,
              std::span<const char> flags) override {
    if (packs_words()) {
      // opt6: the 2-bit words and their ambiguity flags are the only copy of
      // the chunk on the device.
      const swar_ref& words = words_of(ch);
      chr2_buf_.emplace(words.packed2.data(), sycl::range<1>(words.packed2.size()));
      amb2_buf_.emplace(words.amb2.data(), sycl::range<1>(words.amb2.size()));
    } else {
      chr_buf_.emplace(ch.text.data(), sycl::range<1>(ch.text.size()));
    }
    alloc_hits(hit_cap);
    count_buf_.emplace(sycl::range<1>(1));
    if (!loci.empty()) {
      copy_in(loci.data(), *loci_buf_, loci.size());
      copy_in(flags.data(), *flag_buf_, flags.size());
    }
  }

  void alloc_hits(usize cap) override {
    loci_buf_.emplace(sycl::range<1>(std::max<usize>(1, cap)));
    flag_buf_.emplace(sycl::range<1>(std::max<usize>(1, cap)));
  }

  void read_hits(u32 n, u32* loci, char* flags) override {
    if (loci != nullptr) copy_out(*loci_buf_, n, loci);
    if (flags != nullptr) copy_out(*flag_buf_, n, flags);
  }

  /// Write `n` host elements into the front of `buf` through a ranged
  /// write accessor.
  template <class T>
  void copy_in(const T* src, sycl::buffer<T, 1>& buf, usize n) {
    q_.submit([&](sycl::handler& cgh) {
       auto acc = buf.template get_access<sycl::sycl_write>(cgh, sycl::range<1>(n),
                                                            sycl::id<1>(0));
       cgh.copy(src, acc);
     }).wait();
  }

  /// Read the first `n` elements of `buf` back through a ranged accessor.
  template <class T>
  void copy_out(sycl::buffer<T, 1>& buf, usize n, T* dst) {
    q_.submit([&](sycl::handler& cgh) {
       auto acc = buf.template get_access<sycl::sycl_read>(cgh, sycl::range<1>(n),
                                                           sycl::id<1>(0));
       cgh.copy(acc, dst);
     }).wait();
  }

  /// Zero the one-element counter buffer through a write accessor.
  void zero_count(sycl::buffer<u32, 1>& buf) {
    const u32 zero = 0;
    copy_in(&zero, buf, 1);
  }

  u32 read_count(sycl::buffer<u32, 1>& buf) {
    u32 count = 0;
    copy_out(buf, 1, &count);
    return count;
  }

  launch_stats launch_finder(const device_pattern& pat, u32 chrsize, usize cap) override {
    zero_count(*count_buf_);
    if (packs_words()) {
      opt_.counting ? submit_finder_swar<counting_mem>(pat, chrsize, cap)
                    : submit_finder_swar<direct_mem>(pat, chrsize, cap);
    } else {
      opt_.counting ? submit_finder<counting_mem>(pat, chrsize, cap)
                    : submit_finder<direct_mem>(pat, chrsize, cap);
    }
    const util::u64 nanos = q_.cof_last_launch().wall_nanos;
    return {read_count(*count_buf_), nanos};
  }

  /// The per-position finder (base..opt4): one work-item per start
  /// position, pattern fetched into local memory behind one barrier.
  template <class P>
  void submit_finder(const device_pattern& pat, u32 chrsize, usize loci_cap) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(chrsize, lws);
    sycl::buffer<char, 1> pat_buf(pat.data(), sycl::range<1>(pat.device_chars()));
    sycl::buffer<i32, 1> idx_buf(pat.index_data(), sycl::range<1>(pat.index.size()));
    count_h2d(pat.device_chars() + pat.index.size() * sizeof(i32));
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name(tags().finder.c_str());
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       auto chr = chr_buf_->get_access<sycl::sycl_read>(cgh);
       auto patc = pat_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto pidx = idx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_write>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_write>(cgh);
       auto cnt = count_buf_->get_access<sycl::sycl_read_write>(cgh);
       sycl::accessor<char, 1, sycl::sycl_read_write, sycl::sycl_lmem> l_pat(
           sycl::range<1>(pat.device_chars()), cgh);
       sycl::accessor<i32, 1, sycl::sycl_read_write, sycl::sycl_lmem> l_idx(
           sycl::range<1>(pat.index.size()), cgh);
       const u32 plen = pat.plen;
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          finder_args a;
                          a.chr = chr.get_pointer();
                          a.pat = patc.get_pointer();
                          a.pat_index = pidx.get_pointer();
                          a.chrsize = chrsize;
                          a.plen = plen;
                          a.loci = loci.get_pointer();
                          a.flag = flag.get_pointer();
                          a.entrycount = cnt.get_pointer();
                          a.entry_capacity = static_cast<u32>(loci_cap);
                          a.l_pat = l_pat.get_pointer();
                          a.l_pat_index = l_idx.get_pointer();
                          finder_kernel<P>(item, a);
                        });
     }).wait();
  }

  /// opt6: the packed-word finder over the resident words, one work-item
  /// per 32 start positions, no local memory and no barrier. Non-counting
  /// runs install its lane body too (finder_swar_lanes).
  template <class P>
  void submit_finder_swar(const device_pattern& pat, u32 chrsize, usize loci_cap) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(swar_finder_items(chrsize), lws);
    sycl::buffer<i32, 1> idx_buf(pat.index_data(), sycl::range<1>(pat.index.size()));
    sycl::buffer<u16, 1> mask_buf(pat.mask_data(), sycl::range<1>(pat.mask.size()));
    count_h2d(pat.index.size() * sizeof(i32) + pat.mask.size() * sizeof(u16));
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name(tags().finder.c_str());
       cgh.cof_hint_no_barrier();
       auto chr2 = chr2_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb2 = amb2_buf_->get_access<sycl::sycl_read>(cgh);
       auto pidx = idx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto pmask = mask_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_write>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_write>(cgh);
       auto cnt = count_buf_->get_access<sycl::sycl_read_write>(cgh);
       const u32 plen = pat.plen;
       const u32 entry_cap = static_cast<u32>(loci_cap);
       const auto args = [=] {
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
         a.entry_capacity = entry_cap;
         return a;
       };
       const sycl::nd_range<1> ndr{sycl::range<1>(gws), sycl::range<1>(lws)};
       const auto kernel = [=](sycl::nd_item<1> item) { finder_swar_kernel<P>(item, args()); };
       if (opt_.counting) {
         cgh.parallel_for(ndr, kernel);
       } else {
         cgh.cof_parallel_for_lanes(ndr, kernel, [=](size_t first, size_t nlanes) {
           finder_swar_lanes(args(), first, nlanes);
         });
       }
     }).wait();
  }

  /// A per-query comparer launch's output buffers.
  struct comparer_out {
    sycl::buffer<u16, 1>& mm;
    sycl::buffer<char, 1>& dir;
    sycl::buffer<u32, 1>& loci;
    sycl::buffer<u32, 1>& count;
  };

  /// One query's per-query comparer (base..opt4): device-local outputs for
  /// `cap` entries, released with this frame.
  launch_stats launch_comparer(const device_pattern& query, u16 threshold, u32 locicnt,
                               usize cap, entries& out) override {
    sycl::buffer<u16, 1> mm_buf{sycl::range<1>(cap)};
    sycl::buffer<char, 1> dir_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> mm_loci_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> ccount_buf{sycl::range<1>(1)};
    zero_count(ccount_buf);
    const comparer_out o{mm_buf, dir_buf, mm_loci_buf, ccount_buf};
    opt_.counting ? submit_comparer<counting_mem>(query, threshold, locicnt, cap, o)
                  : submit_comparer<direct_mem>(query, threshold, locicnt, cap, o);
    const util::u64 nanos = q_.cof_last_launch().wall_nanos;
    const u32 n = read_count(ccount_buf);
    if (n != 0 && n <= cap) {
      out.resize(n);
      copy_out(mm_buf, n, out.mm.data());
      copy_out(dir_buf, n, out.dir.data());
      copy_out(mm_loci_buf, n, out.loci.data());
    }
    return {n, nanos};
  }

  template <class P>
  void submit_comparer(const device_pattern& query, u16 threshold, u32 locicnt, usize cap,
                       const comparer_out& o) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt, lws);
    sycl::buffer<char, 1> comp_buf(query.data(), sycl::range<1>(query.device_chars()));
    sycl::buffer<i32, 1> cidx_buf(query.index_data(),
                                  sycl::range<1>(query.index.size()));
    count_h2d(query.device_chars() + query.index.size() * sizeof(i32));

    const comparer_variant variant = opt_.variant;
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name(tags().comparer.c_str());
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       auto chr = chr_buf_->get_access<sycl::sycl_read>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_read>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_read>(cgh);
       auto comp = comp_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto cidx = cidx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto mm = o.mm.get_access<sycl::sycl_write>(cgh);
       auto dir = o.dir.get_access<sycl::sycl_write>(cgh);
       auto mloci = o.loci.get_access<sycl::sycl_write>(cgh);
       auto cnt = o.count.get_access<sycl::sycl_read_write>(cgh);
       sycl::accessor<char, 1, sycl::sycl_read_write, sycl::sycl_lmem> l_comp(
           sycl::range<1>(query.device_chars()), cgh);
       sycl::accessor<i32, 1, sycl::sycl_read_write, sycl::sycl_lmem> l_cidx(
           sycl::range<1>(query.index.size()), cgh);
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
                          a.plen = plen;
                          a.threshold = threshold;
                          a.mm_count = mm.get_pointer();
                          a.direction = dir.get_pointer();
                          a.mm_loci = mloci.get_pointer();
                          a.entrycount = cnt.get_pointer();
                          a.entry_capacity = static_cast<u32>(cap);
                          a.l_comp = l_comp.get_pointer();
                          a.l_comp_index = l_cidx.get_pointer();
                          comparer_dispatch<P>(variant, item, a);
                        });
     }).wait();
  }

  /// opt6's comparer, launch half: one kernel covers every query (see
  /// kernels_swar.hpp/comparer_multi_swar_kernel), consuming the finder's
  /// loci/flag buffers device-side. Output buffers stay device-resident as
  /// staged members until read_batch downloads them.
  util::u64 launch_batch(const query_batch& b, u32 locicnt, usize cap) override {
    batch_mm_buf_.emplace(sycl::range<1>(cap));
    batch_dir_buf_.emplace(sycl::range<1>(cap));
    batch_loci_buf_.emplace(sycl::range<1>(cap));
    batch_query_buf_.emplace(sycl::range<1>(cap));
    batch_count_buf_.emplace(sycl::range<1>(1));
    zero_count(*batch_count_buf_);
    opt_.counting ? submit_batch<counting_mem>(b, locicnt, cap)
                  : submit_batch<direct_mem>(b, locicnt, cap);
    return q_.cof_last_launch().wall_nanos;
  }

  /// The SWAR kernel over every query, building each locus's window once.
  /// Non-counting runs additionally install its lane-batched row body, which
  /// the executor substitutes for per-item execution when the host's SIMD
  /// lanes are enabled.
  template <class P>
  void submit_batch(const query_batch& b, u32 locicnt, usize cap) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt, lws);
    sycl::buffer<util::u64, 1> cswar_buf(b.swar.data(), sycl::range<1>(b.swar.size()));
    sycl::buffer<u16, 1> thr_buf(b.thresholds, sycl::range<1>(b.queries));
    count_h2d(b.swar.size() * sizeof(util::u64) + b.queries * sizeof(u16));

    const u32 nq = b.queries;
    const u32 plen = b.plen;
    const u32 swar_words = b.swar_words;
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name(tags().comparer.c_str());
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       auto chr2 = chr2_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb2 = amb2_buf_->get_access<sycl::sycl_read>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_read>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_read>(cgh);
       auto cswar = cswar_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto thr = thr_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto mm = batch_mm_buf_->get_access<sycl::sycl_write>(cgh);
       auto dir = batch_dir_buf_->get_access<sycl::sycl_write>(cgh);
       auto mloci = batch_loci_buf_->get_access<sycl::sycl_write>(cgh);
       auto mquery = batch_query_buf_->get_access<sycl::sycl_write>(cgh);
       auto cnt = batch_count_buf_->get_access<sycl::sycl_read_write>(cgh);
       sycl::local_accessor<util::u64, 1> l_swar(sycl::range<1>(b.swar.size()), cgh);
       const auto fill_args = [=](comparer_multi_swar_args& a) {
         a.locicnts = locicnt;
         a.chr_packed2 = chr2.get_pointer();
         a.chr_amb2 = amb2.get_pointer();
         a.loci = loci.get_pointer();
         a.flag = flag.get_pointer();
         a.comp_swar = cswar.get_pointer();
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
       };
       const sycl::nd_range<1> ndr{sycl::range<1>(gws), sycl::range<1>(lws)};
       const auto kernel = [=](sycl::nd_item<1> item) {
         comparer_multi_swar_args a;
         fill_args(a);
         a.l_comp_swar = l_swar.get_pointer();
         comparer_multi_swar_kernel<P>(item, a);
       };
       if (opt_.counting) {
         cgh.parallel_for(ndr, kernel);
       } else {
         cgh.cof_parallel_for_lanes(ndr, kernel, [=](size_t first, size_t nlanes) {
           comparer_multi_swar_args a;
           fill_args(a);
           // Lane rows skip the cooperative fetch; masks come straight from
           // the constant-memory array.
           a.l_comp_swar = cswar.get_pointer();
           comparer_multi_swar_lanes(a, first, nlanes);
         });
       }
     }).wait();
  }

  /// opt6's comparer, read half: deferred download of the staged entry
  /// buffers (count + four arrays), then release of the device storage.
  u32 read_batch(usize cap, entries& out) override {
    const u32 n = read_count(*batch_count_buf_);
    if (n != 0 && n <= cap) {
      out.resize(n);
      out.qidx.resize(n);
      copy_out(*batch_mm_buf_, n, out.mm.data());
      copy_out(*batch_dir_buf_, n, out.dir.data());
      copy_out(*batch_loci_buf_, n, out.loci.data());
      copy_out(*batch_query_buf_, n, out.qidx.data());
    }
    batch_mm_buf_.reset();
    batch_dir_buf_.reset();
    batch_loci_buf_.reset();
    batch_query_buf_.reset();
    batch_count_buf_.reset();
    return n;
  }

  sycl::queue q_;
  std::optional<sycl::buffer<char, 1>> chr_buf_;  // base..opt4: the chunk's chars
  // opt6: the chunk's 2-bit words + ambiguity flags (see kernels_swar.hpp).
  std::optional<sycl::buffer<util::u64, 1>> chr2_buf_;
  std::optional<sycl::buffer<util::u64, 1>> amb2_buf_;
  std::optional<sycl::buffer<u32, 1>> loci_buf_;
  std::optional<sycl::buffer<char, 1>> flag_buf_;
  std::optional<sycl::buffer<u32, 1>> count_buf_;
  // Staged output of the last launch_batch (device-resident until
  // read_batch).
  std::optional<sycl::buffer<u16, 1>> batch_mm_buf_;
  std::optional<sycl::buffer<char, 1>> batch_dir_buf_;
  std::optional<sycl::buffer<u32, 1>> batch_loci_buf_;
  std::optional<sycl::buffer<u16, 1>> batch_query_buf_;
  std::optional<sycl::buffer<u32, 1>> batch_count_buf_;
};

}  // namespace

std::unique_ptr<device_pipeline> make_sycl_pipeline(const pipeline_options& opt) {
  return std::make_unique<sycl_pipeline>(opt);
}

std::unique_ptr<device_pipeline> make_sycl_pipeline(const pipeline_options& opt,
                                                    const char* name,
                                                    device_pipeline::kernel_tags tags) {
  return std::make_unique<sycl_pipeline>(opt, name, std::move(tags));
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
