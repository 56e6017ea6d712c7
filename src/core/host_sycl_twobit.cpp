// SYCL host program over 2-bit packed chunks (the upstream memory
// optimisation, §V [21]): the host packs each chunk with genome::twobit_seq
// and uploads ~3/8 of the char payload (2 bits/base + 1 ambiguity bit/base).
// Under opt6 it uploads the producer's packed words instead (kernels_swar.hpp)
// and runs the packed-word finder and comparer over them; no chars and no
// second encoding reach the device.
#include <algorithm>
#include <optional>

#include "core/kernels_swar.hpp"
#include "core/kernels_twobit.hpp"
#include "core/pipeline.hpp"
#include "genome/twobit.hpp"
#include "syclsim/sycl.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace cof {

namespace {

class sycl_twobit_pipeline final : public device_pipeline {
 public:
  explicit sycl_twobit_pipeline(const pipeline_options& opt)
      : device_pipeline(opt), opt_(opt), q_(sycl::gpu_selector{}) {
    if (opt_.wg_size == 0) opt_.wg_size = 256;
  }

  const char* name() const override { return "sycl-2bit"; }

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

  const pipeline_metrics& metrics() const override { return metrics_; }

 private:
  /// Upload the chunk (nibble-packed, or the producer's words under opt6)
  /// and allocate hit arrays for `hit_cap` entries.
  void upload(const packed_chunk& ch, usize hit_cap) {
    obs::span sp("h2d.chunk", "device");
    sp.arg("bytes", static_cast<double>(ch.text.size()));
    fault::inject_point(fault::site::dev_alloc);
    chunk_len_ = ch.text.size();
    locicnt_ = 0;
    if (packs_words()) {
      // opt6: the producer's words in SWAR geometry (32 bases/u64 plus tail
      // padding) are the only copy of the chunk on the device.
      const swar_ref& words = words_of(ch);
      chr2_buf_.emplace(words.packed2.data(), sycl::range<1>(words.packed2.size()));
      amb2_buf_.emplace(words.amb2.data(), sycl::range<1>(words.amb2.size()));
    } else {
      packed_ = genome::twobit_seq::encode(ch.text);
      packed_buf_.emplace(packed_.packed().data(),
                          sycl::range<1>(std::max<usize>(1, packed_.packed_bytes())));
      amb_buf_.emplace(
          packed_.ambiguity_words().data(),
          sycl::range<1>(std::max<usize>(1, packed_.ambiguity_words().size())));
    }
    alloc_hits(hit_cap);
    count_buf_.emplace(sycl::range<1>(1));
    metrics_.h2d_bytes += chunk_bytes(chunk_len_);
  }

  /// Device-resident hit arrays for `cap` entries: the finder's worst case
  /// unless opt_.max_entries caps it, or a warm chunk's prebuilt hits.
  void alloc_hits(usize cap) {
    loci_cap_ = cap;
    loci_buf_.emplace(sycl::range<1>(std::max<usize>(1, loci_cap_)));
    flag_buf_.emplace(sycl::range<1>(std::max<usize>(1, loci_cap_)));
  }

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

  /// Bytes load_chunk uploads for a chunk of `bases`: the two word arrays
  /// under opt6, else the nibble-packed codes (4 bases/byte) and the
  /// ambiguity bitmask (64 bases/u64).
  usize chunk_bytes(usize bases) const {
    if (packs_words()) return swar_ref_bytes(bases);
    return (bases + 3) / 4 + (bases + 63) / 64 * sizeof(u64);
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
    detail::kernel_record_scope rec(opt_,
                                    packs_words() ? "finder/2bit-opt6" : "finder/2bit");
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

  /// The nibble-packed finder (base..opt5): one work-item per start
  /// position, pattern chars in local memory behind a barrier.
  template <class P>
  void submit_finder(const device_pattern& pat, u32 chrsize) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(chrsize, lws);
    sycl::buffer<char, 1> pat_buf(pat.data(), sycl::range<1>(pat.device_chars()));
    sycl::buffer<i32, 1> idx_buf(pat.index_data(), sycl::range<1>(pat.index.size()));
    metrics_.h2d_bytes += pat.device_chars() + pat.index.size() * sizeof(i32);
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("finder/2bit");
       auto packed = packed_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb = amb_buf_->get_access<sycl::sycl_read>(cgh);
       auto patc = pat_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto pidx = idx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_write>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_write>(cgh);
       auto cnt = count_buf_->get_access<sycl::sycl_read_write>(cgh);
       sycl::local_accessor<char, 1> l_pat(sycl::range<1>(pat.device_chars()), cgh);
       sycl::local_accessor<i32, 1> l_idx(sycl::range<1>(pat.index.size()), cgh);
       const u32 plen = pat.plen;
       const u32 loci_cap = static_cast<u32>(loci_cap_);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          finder_twobit_args a;
                          a.chr_packed = reinterpret_cast<const u8*>(packed.get_pointer());
                          a.chr_amb = amb.get_pointer();
                          a.pat = patc.get_pointer();
                          a.pat_index = pidx.get_pointer();
                          a.chrsize = chrsize;
                          a.plen = plen;
                          a.loci = loci.get_pointer();
                          a.flag = flag.get_pointer();
                          a.entrycount = cnt.get_pointer();
                          a.entry_capacity = loci_cap;
                          a.l_pat = l_pat.get_pointer();
                          a.l_pat_index = l_idx.get_pointer();
                          finder_twobit_kernel<P>(item, a);
                        });
     }).wait();
  }

  /// opt6: the packed-word finder over the producer's words (no local
  /// memory, no barrier, 32 start positions per work-item).
  template <class P>
  void submit_finder_swar(const device_pattern& pat, u32 chrsize) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(swar_finder_items(chrsize), lws);
    sycl::buffer<i32, 1> idx_buf(pat.index_data(), sycl::range<1>(pat.index.size()));
    sycl::buffer<u16, 1> mask_buf(pat.mask_data(), sycl::range<1>(pat.mask.size()));
    metrics_.h2d_bytes += pat.index.size() * sizeof(i32) + pat.mask.size() * sizeof(u16);
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("finder/2bit-opt6");
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
    const usize cap = cap_entries(static_cast<usize>(locicnt_) * 2);

    sycl::buffer<char, 1> comp_buf(query.data(), sycl::range<1>(query.device_chars()));
    sycl::buffer<i32, 1> cidx_buf(query.index_data(),
                                  sycl::range<1>(query.index.size()));
    sycl::buffer<u16, 1> mm_buf{sycl::range<1>(cap)};
    sycl::buffer<char, 1> dir_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> mm_loci_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> ccount_buf{sycl::range<1>(1)};
    metrics_.h2d_bytes += query.device_chars() + query.index.size() * sizeof(i32);
    zero_count(ccount_buf);

    detail::kernel_record_scope rec(opt_, "comparer/2bit");
    const u32 locicnt = locicnt_;
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("comparer/2bit");
       auto packed = packed_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb = amb_buf_->get_access<sycl::sycl_read>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_read>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_read>(cgh);
       auto comp = comp_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto cidx = cidx_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto mm = mm_buf.get_access<sycl::sycl_write>(cgh);
       auto dir = dir_buf.get_access<sycl::sycl_write>(cgh);
       auto mloci = mm_loci_buf.get_access<sycl::sycl_write>(cgh);
       auto cnt = ccount_buf.get_access<sycl::sycl_read_write>(cgh);
       sycl::local_accessor<char, 1> l_comp(sycl::range<1>(query.device_chars()), cgh);
       sycl::local_accessor<i32, 1> l_cidx(sycl::range<1>(query.index.size()), cgh);
       const u32 plen = query.plen;
       const u32 entry_cap = static_cast<u32>(cap);
       cgh.parallel_for(sycl::nd_range<1>(sycl::range<1>(gws), sycl::range<1>(lws)),
                        [=](sycl::nd_item<1> item) {
                          comparer_twobit_args a;
                          a.locicnts = locicnt;
                          a.chr_packed = reinterpret_cast<const u8*>(packed.get_pointer());
                          a.chr_amb = amb.get_pointer();
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
                          a.entry_capacity = entry_cap;
                          a.l_comp = l_comp.get_pointer();
                          a.l_comp_index = l_cidx.get_pointer();
                          comparer_twobit_kernel<P>(item, a);
                        });
     }).wait();
    const auto stats = q_.cof_last_launch();
    metrics_.kernel_nanos += stats.wall_nanos;
    ++metrics_.comparer_launches;
    rec.finish(stats.wall_nanos);

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
      metrics_.d2h_bytes += n * (sizeof(u16) + 1 + sizeof(u32));
    }
    metrics_.total_entries += n;
    return out;
  }

  /// opt6: SWAR comparer over the chunk's words. CharRef = false — this
  /// facade never keeps the raw chars resident, so ambiguous reference bases
  /// take the collapsed-'N' path (the per-word 'N' deny mask), exactly the
  /// semantics of comparer_twobit_kernel. Non-counting runs install the
  /// lane-batched row body for the executor's SIMD dispatch.
  template <class P>
  entries run_comparer_swar(const device_pattern& query, u16 threshold) {
    const usize lws = opt_.wg_size;
    const usize gws = util::round_up<usize>(locicnt_, lws);
    const usize cap = cap_entries(static_cast<usize>(locicnt_) * 2);

    sycl::buffer<u64, 1> cswar_buf(query.swar_data(), sycl::range<1>(query.swar.size()));
    sycl::buffer<u16, 1> mm_buf{sycl::range<1>(cap)};
    sycl::buffer<char, 1> dir_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> mm_loci_buf{sycl::range<1>(cap)};
    sycl::buffer<u32, 1> ccount_buf{sycl::range<1>(1)};
    metrics_.h2d_bytes += query.swar.size() * sizeof(u64);
    zero_count(ccount_buf);

    detail::kernel_record_scope rec(opt_, "comparer/2bit-opt6");
    const u32 locicnt = locicnt_;
    const u32 plen = query.plen;
    const u32 swar_words = query.swar_words;
    const sycl::nd_range<1> ndr{sycl::range<1>(gws), sycl::range<1>(lws)};
    q_.submit([&](sycl::handler& cgh) {
       cgh.cof_set_name("comparer/2bit-opt6");
       if (!opt_.counting) cgh.cof_hint_single_leading_barrier();
       auto chr2 = chr2_buf_->get_access<sycl::sycl_read>(cgh);
       auto amb2 = amb2_buf_->get_access<sycl::sycl_read>(cgh);
       auto loci = loci_buf_->get_access<sycl::sycl_read>(cgh);
       auto flag = flag_buf_->get_access<sycl::sycl_read>(cgh);
       auto cswar = cswar_buf.get_access<sycl::sycl_read, sycl::sycl_cmem>(cgh);
       auto mm = mm_buf.get_access<sycl::sycl_write>(cgh);
       auto dir = dir_buf.get_access<sycl::sycl_write>(cgh);
       auto mloci = mm_loci_buf.get_access<sycl::sycl_write>(cgh);
       auto cnt = ccount_buf.get_access<sycl::sycl_read_write>(cgh);
       sycl::local_accessor<u64, 1> l_swar(sycl::range<1>(query.swar.size()), cgh);
       const auto fill_args = [=](comparer_swar_args& a) {
         a.locicnts = locicnt;
         a.chr_packed2 = chr2.get_pointer();
         a.chr_amb2 = amb2.get_pointer();
         a.loci = loci.get_pointer();
         a.flag = flag.get_pointer();
         a.comp_swar = cswar.get_pointer();
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
         comparer_swar_kernel<P, sycl::nd_item<1>, false>(item, a);
       };
       if (opt_.counting) {
         cgh.parallel_for(ndr, kernel);
       } else {
         cgh.cof_parallel_for_lanes(ndr, kernel, [=](size_t first, size_t nlanes) {
           comparer_swar_args a;
           fill_args(a);
           // Lane rows skip the cooperative fetch; masks come straight from
           // the constant-memory array.
           a.l_comp_swar = cswar.get_pointer();
           comparer_swar_lanes<false>(a, first, nlanes);
         });
       }
     }).wait();
    const auto stats = q_.cof_last_launch();
    metrics_.kernel_nanos += stats.wall_nanos;
    ++metrics_.comparer_launches;
    rec.finish(stats.wall_nanos);

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
      metrics_.d2h_bytes += n * (sizeof(u16) + 1 + sizeof(u32));
    }
    metrics_.total_entries += n;
    return out;
  }

  pipeline_options opt_;
  sycl::queue q_;
  pipeline_metrics metrics_;
  genome::twobit_seq packed_;
  std::optional<sycl::buffer<u8, 1>> packed_buf_;
  std::optional<sycl::buffer<u64, 1>> amb_buf_;
  std::optional<sycl::buffer<u64, 1>> chr2_buf_;  // opt6: the chunk's words
  std::optional<sycl::buffer<u64, 1>> amb2_buf_;  // opt6: their ambiguity flags
  std::optional<sycl::buffer<u32, 1>> loci_buf_;
  std::optional<sycl::buffer<char, 1>> flag_buf_;
  std::optional<sycl::buffer<u32, 1>> count_buf_;
  usize chunk_len_ = 0;
  usize loci_cap_ = 0;
  u32 locicnt_ = 0;
  u32 plen_ = 0;
};

}  // namespace

std::unique_ptr<device_pipeline> make_sycl_twobit_pipeline(const pipeline_options& opt) {
  return std::make_unique<sycl_twobit_pipeline>(opt);
}

}  // namespace cof
